//! The daemon's staged, chunked I/O engine (paper §4.3 / Figure 5:
//! "overlap file accesses on the CPU with the GPU-CPU data transfers").
//!
//! Both bulk-data RPCs move a *batch* of pages in one round-trip and one
//! scatter-gather DMA transaction. The serialized engine of the original
//! prototype ran the two halves back to back — `ReadPages`: pread every
//! page, then one DMA after the last pread; `WritePages`: one D2H gather,
//! then every `pwrite` after it — so within an RPC host file I/O and PCIe
//! time simply added up, and batches had to be span-capped client-side to
//! keep that serialization from swallowing all concurrency.
//!
//! The pipelined engine splits a batch into fixed-size chunks of
//! [`crate::GpufsConfig::io_chunk_pages`] pages and overlaps the stages:
//!
//! ```text
//! ReadPages   pread c0 | pread c1 | pread c2 |
//!                      | DMA c0   | DMA c1   | DMA c2
//! WritePages  gather c0 | gather c1 | gather c2 |
//!                       | pwrite c0 | pwrite c1 | pwrite c2
//! ```
//!
//! This is the only copy of that engine. What it stages from and writes
//! out to it knows as a [`Backing`] and nothing more: a local daemon's
//! file system, where a chunk is that many `pread`s or `pwrite`s, or a
//! proxied daemon's storage server, where a chunk is a host-cache lookup
//! and one wire frame. The chunking and the DMA lane below are the same
//! code either way.
//!
//! Page bytes move once. A `ReadPages` hands the backing the batch's GPU
//! frames themselves, so stage 1 `pread`s each page straight into its
//! frame; a `WritePages` hands it the dirty extents straight out of
//! theirs. The modelled DMA only needs byte counts, so the lane charges
//! the link and touches no byte, and no host staging buffer exists: the
//! double buffer is modelled in virtual time only.
//!
//! The worker's clock carries the file-I/O lane; the DMA lane
//! ([`super::lane::DmaLane`]) is a chain of chunk reservations, each
//! issued no earlier than its data is ready *and* no earlier than the
//! previous chunk ends (chunks of one transaction never overlap each
//! other on the engine). Setup is paid at most once, on the first chunk
//! shipped — not at all if that chunk finds the engine's descriptor ring
//! still running and joins it; each later or joined chunk charges the
//! cheap CPU-side submit [`simtime::Timings::dma_chunk_ns`] to the worker.
//! Any chunk at least the batch width collapses to the serialized
//! engine's schedule — all preads, then one DMA; `io_chunk_pages = 0` is
//! that engine proper, on the paper prototype's DMA path (one one-shot
//! transaction per RPC, past the ring).
//!
//! Error semantics are those of the serialized engine: a failure in any
//! chunk fails the whole RPC (the requester unwinds the batch — frames
//! released on reads, every page's dirty flag re-armed on writes — so
//! partially filled frames and partially DMA'd chunks are never
//! observable).

use gpusim::Gpu;
use hostfs::{FsError, HostFd};
use simtime::{Clock, Nanos};

use super::backing::Backing;
use super::lane::DmaLane;
use super::ServeCtx;
use crate::rpc::{PageRead, PageWrite, RespOk};

/// Pages per chunk of a `len`-page batch under the `io_chunk_pages`
/// setting (`0` = the whole batch in one chunk, i.e. serialized).
fn chunk_len(io_chunk_pages: usize, len: usize) -> usize {
    match io_chunk_pages {
        0 => len.max(1),
        n => n,
    }
}

/// Serve a `ReadPages` batch: stage chunk *k+1* while the scatter-gather
/// DMA of chunk *k* is in flight. Returns the per-page byte counts and
/// the virtual time the requester may proceed: the end of the *last*
/// chunk's DMA, so every page of the batch is ready at the response.
///
/// Stage 1 `pread`s each page straight into its frame, so a page's bytes
/// are copied once; stage 2 only charges the link for them. The batch's
/// destinations and byte counts are allocated once, up front: no page or
/// chunk allocates.
pub(super) fn read_pages(
    backing: &dyn Backing,
    gpu: &Gpu,
    ctx: &ServeCtx<'_>,
    clock: &mut Clock,
    fd: HostFd,
    pages: &[PageRead],
) -> Result<(RespOk, Nanos), FsError> {
    if pages.len() > 1 {
        ctx.on(|s| {
            s.batched_rpcs.incr();
            s.pages_per_rpc.add(pages.len() as u64);
        });
    }
    let step = chunk_len(ctx.engine.io_chunk_pages, pages.len());
    let mut lane = DmaLane::new(gpu, ctx);
    // SAFETY: the requester allocated a distinct frame for every page of
    // the batch and keeps each one unpublished (`Initializing`) until this
    // response returns, so nothing else reads or writes these ranges while
    // the slices live; a failed batch releases the frames unpublished.
    let mut dsts: Vec<(u64, &mut [u8])> = pages
        .iter()
        .map(|p| (p.offset, unsafe { gpu.global().slice_mut(p.dst, p.len) }))
        .collect();
    let mut ns = vec![0; pages.len()];
    for (j, (dsts, ns)) in dsts.chunks_mut(step).zip(ns.chunks_mut(step)).enumerate() {
        // Stage 1 — this chunk's bytes into its frames, on the worker's
        // clock.
        backing.read_chunk(Some(ctx), clock, fd, j, dsts, ns)?;
        // Stage 2 — ship the chunk asynchronously: the DMA is issued at
        // max(data ready, previous chunk's end) and the worker moves on
        // to the next chunk's stage 1 without waiting for it.
        let bytes: usize = ns.iter().sum();
        if bytes > 0 {
            lane.read_chunk(clock, bytes as u64);
        }
    }
    let t = lane.end().max(clock.now());
    Ok((RespOk::Read { ns }, t))
}

/// Serve a `WritePages` batch: the D2H gather of chunk *k+1* overlaps the
/// write-out of chunk *k*. Unlike reads, each chunk's gather must land in
/// host memory before that chunk can be written out, so the worker's
/// clock waits per chunk — but only for *its* chunk, not the whole
/// batch's gather as the serialized engine did. The requester proceeds
/// when the worker's clock gets to the end of the last write-out, which
/// reads each dirty extent straight out of its frame.
pub(super) fn write_pages(
    backing: &dyn Backing,
    gpu: &Gpu,
    ctx: &ServeCtx<'_>,
    clock: &mut Clock,
    fd: HostFd,
    pages: &[PageWrite],
) -> Result<RespOk, FsError> {
    if pages.len() > 1 {
        ctx.on(|s| {
            s.batched_write_rpcs.incr();
            s.pages_per_write_rpc.add(pages.len() as u64);
        });
    }
    let issue = clock.now();
    let mut lane = DmaLane::new(gpu, ctx);
    let mut written = 0usize;
    let mut generation = None;
    // One chunk's dirty extents, as (file offset, bytes in the frame).
    let mut extents: Vec<(u64, &[u8])> = Vec::new();
    for chunk in pages.chunks(chunk_len(ctx.engine.io_chunk_pages, pages.len())) {
        // Flatten this chunk's dirty extents into one scatter-gather
        // descriptor list; only the modified bytes travel.
        extents.clear();
        for pw in chunk {
            for &(off, len) in &pw.extents {
                // SAFETY: the flushing caller holds a pin on the page or
                // has detached its frame, so the frame is not reused
                // while the batch is served; concurrent writers to the
                // same page coordinate with sync (Table 1), as the diff
                // that produced these extents already assumed.
                let bytes = unsafe { gpu.global().slice(pw.src + off as usize, len as usize) };
                extents.push((pw.page_offset + u64::from(off), bytes));
            }
        }
        if extents.is_empty() {
            continue;
        }
        let bytes = extents.iter().map(|(_, b)| b.len() as u64).sum();
        // The gather chain runs independently of the write-out lane:
        // chunk k+1's gather starts when the engine frees up (gather k's
        // end), not after chunk k is written out.
        let r = lane.write_chunk(clock, issue, bytes);
        // This chunk's bytes must be in host memory before they go out.
        clock.wait_until(r.end);
        let (n, g) = backing.write_chunk(Some(ctx), clock, fd, &extents)?;
        written += n;
        generation = Some(g);
    }
    let generation = match generation {
        Some(g) => g,
        // Nothing was dirty: the answer is only the file's generation.
        None => backing.write_chunk(Some(ctx), clock, fd, &[])?.1,
    };
    Ok(RespOk::Wrote {
        n: written,
        generation,
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::super::backing::{FileStat, Opened};
    use super::super::testutil::{call, host, host_chunked, host_chunked_proxied};
    use super::super::{DaemonStats, Engine, GpufsHost};
    use super::*;
    use crate::rpc::{PageRead, PageWrite, Request, RespOk};
    use hostfs::{HostFs, HostFsConfig, OpenFlags};
    use simtime::WorkerPool;
    use simtime::{Nanos, Timings};

    fn open(h: &GpufsHost, path: &str, write: bool) -> hostfs::HostFd {
        let (ok, _) = call(
            h,
            Request::Open {
                path: path.into(),
                write,
                create: false,
                truncate: false,
            },
        )
        .unwrap();
        let RespOk::Opened { fd, .. } = ok else {
            panic!("expected Opened")
        };
        fd
    }

    /// One row of the host's registry snapshot.
    fn row(h: &GpufsHost, key: &str) -> u64 {
        let snap = h.registry().snapshot();
        snap.iter().find(|(k, _)| k == key).unwrap().1
    }

    fn read_batch(h: &GpufsHost, fd: hostfs::HostFd, pages: Vec<PageRead>) -> (Vec<usize>, Nanos) {
        let (ok, t) = call(h, Request::ReadPages { fd, pages, gpu: 0 }).unwrap();
        let RespOk::Read { ns } = ok else { panic!() };
        (ns, t)
    }

    #[test]
    fn daemon_serializes_but_overlaps_dma() {
        // Two reads: the worker's pread of the second should overlap the
        // first's DMA (second completion < strictly-serial sum).
        let h = host();
        h.fs().create_synthetic("/big", 8 << 20, 3).unwrap();
        let fd = open(&h, "/big", false);
        let a = h.gpus()[0].global().alloc(1 << 20).unwrap();
        let b = h.gpus()[0].global().alloc(1 << 20).unwrap();
        let (_, t1) = read_batch(
            &h,
            fd,
            vec![PageRead {
                offset: 0,
                len: 1 << 20,
                dst: a,
            }],
        );
        let (_, t2) = read_batch(
            &h,
            fd,
            vec![PageRead {
                offset: 1 << 20,
                len: 1 << 20,
                dst: b,
            }],
        );
        let pread_and_dma = t1; // first request end-to-end
        assert!(
            t2 < 2 * pread_and_dma,
            "second read ({t2}) should overlap with first ({pread_and_dma})"
        );
    }

    #[test]
    fn batched_read_beats_singletons_and_counts_pages() {
        // The same four pages as one batch vs four singleton requests: the
        // batch must be strictly faster (one RPC round-trip, one DMA
        // setup) and must land in the batch counters.
        let h = host();
        h.fs().create_synthetic("/batch", 1 << 20, 5).unwrap();
        let fd = open(&h, "/batch", false);
        let page = 64 << 10;
        let dst = h.gpus()[0].global().alloc(4 * page).unwrap();
        let pages: Vec<PageRead> = (0..4)
            .map(|i| PageRead {
                offset: (i * page) as u64,
                len: page,
                dst: dst + i * page,
            })
            .collect();
        let (ns, t_batch) = read_batch(&h, fd, pages);
        assert_eq!(ns, vec![page; 4]);
        assert_eq!(h.stats().batched_rpcs.get(), 1);
        assert_eq!(h.stats().pages_per_rpc.get(), 4);
        assert_eq!(h.stats().bytes_h2d.get(), 4 * page as u64);

        // Singleton baseline on a fresh rig (fresh DMA queue and clocks).
        let h2 = host();
        h2.fs().create_synthetic("/batch", 1 << 20, 5).unwrap();
        let fd2 = open(&h2, "/batch", false);
        let dst2 = h2.gpus()[0].global().alloc(4 * page).unwrap();
        let mut t_serial = 0;
        let mut issue = 0;
        for i in 0..4 {
            let (_, t) = h2
                .hub()
                .call(
                    0,
                    0,
                    issue,
                    &Timings::default(),
                    Request::ReadPages {
                        fd: fd2,
                        pages: vec![PageRead {
                            offset: (i * page) as u64,
                            len: page,
                            dst: dst2 + i * page,
                        }],
                        gpu: 0,
                    },
                )
                .unwrap();
            issue = t;
            t_serial = t;
        }
        assert_eq!(
            h2.stats().batched_rpcs.get(),
            0,
            "singletons are not batches"
        );
        assert!(
            t_batch < t_serial,
            "batch ({t_batch}) must beat synchronous singletons ({t_serial})"
        );
        // Bytes land identically either way.
        let mut a = vec![0u8; 4 * page];
        let mut b = vec![0u8; 4 * page];
        h.gpus()[0].global().read(dst, &mut a);
        h2.gpus()[0].global().read(dst2, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn batched_write_beats_singletons_and_counts_pages() {
        // Four dirty pages as one WritePages batch vs four singleton
        // requests: the batch must be strictly faster (one round-trip,
        // one D2H setup) and must land in the batch counters.
        let page = 64 << 10;
        let run = |batched: bool| -> (Nanos, u64) {
            let h = host();
            h.fs().create("/wb", &vec![0u8; 4 * page]).unwrap();
            let fd = open(&h, "/wb", true);
            let src = h.gpus()[0].global().alloc(4 * page).unwrap();
            h.gpus()[0].global().write(src, &vec![9u8; 4 * page]);
            let mk = |i: usize| PageWrite {
                src: src + i * page,
                page_offset: (i * page) as u64,
                extents: vec![(0, page as u32)],
            };
            let end = if batched {
                let (_, t) = call(
                    &h,
                    Request::WritePages {
                        fd,
                        pages: (0..4).map(mk).collect(),
                        gpu: 0,
                    },
                )
                .unwrap();
                t
            } else {
                let mut issue = 0;
                for i in 0..4 {
                    let (_, t) = h
                        .hub()
                        .call(
                            0,
                            0,
                            issue,
                            &Timings::default(),
                            Request::WritePages {
                                fd,
                                pages: vec![mk(i)],
                                gpu: 0,
                            },
                        )
                        .unwrap();
                    issue = t;
                }
                issue
            };
            let (data, _) = h.fs().read_whole("/wb", 0).unwrap();
            assert!(data.iter().all(|&b| b == 9), "all bytes written");
            assert_eq!(h.stats().bytes_d2h.get(), 4 * page as u64);
            (end, h.stats().batched_write_rpcs.get())
        };
        let (t_batch, batched_rpcs) = run(true);
        let (t_serial, single_rpcs) = run(false);
        assert_eq!(batched_rpcs, 1);
        assert_eq!(single_rpcs, 0, "singletons are not batches");
        assert!(
            t_batch < t_serial,
            "batch ({t_batch}) must beat synchronous singletons ({t_serial})"
        );
    }

    // ------------------------------------------------------------------
    // Pipeline-specific coverage.
    // ------------------------------------------------------------------

    /// Run the same 4-page read batch under `io_chunk` and return its
    /// completion time plus the DMA chunk count.
    fn timed_read(io_chunk: usize) -> (Nanos, u64, Vec<u8>) {
        let page = 64 << 10;
        let h = host_chunked(io_chunk);
        h.fs().create_synthetic("/pipe", 1 << 20, 11).unwrap();
        let fd = open(&h, "/pipe", false);
        let dst = h.gpus()[0].global().alloc(4 * page).unwrap();
        let pages: Vec<PageRead> = (0..4)
            .map(|i| PageRead {
                offset: (i * page) as u64,
                len: page,
                dst: dst + i * page,
            })
            .collect();
        let (ns, t) = read_batch(&h, fd, pages);
        assert_eq!(ns, vec![page; 4]);
        let mut bytes = vec![0u8; 4 * page];
        h.gpus()[0].global().read(dst, &mut bytes);
        (t, h.stats().read_dma_chunks.get(), bytes)
    }

    #[test]
    fn two_chunk_read_completes_earlier_than_serialized() {
        // The tentpole's virtual-time claim, asserted directly: splitting
        // one 4-page batch into 2-page chunks lets the preads of chunk 1
        // hide under the DMA of chunk 0, so the RPC completes strictly
        // earlier than the serialized all-preads-then-one-DMA engine —
        // with identical bytes — and by more than the continuation-submit
        // cost it spends doing so.
        let (t_serial, chunks_serial, bytes_serial) = timed_read(0);
        let (t_piped, chunks_piped, bytes_piped) = timed_read(2);
        assert_eq!(chunks_serial, 1, "serialized = one DMA transaction chunk");
        assert_eq!(chunks_piped, 2, "4 pages / chunk 2");
        assert_eq!(bytes_serial, bytes_piped);
        let saved = t_serial.saturating_sub(t_piped);
        let submit = Timings::default().dma_chunk_ns;
        assert!(
            saved > 4 * submit,
            "pipelined ({t_piped}) must beat serialized ({t_serial}) by more \
             than the submit overhead, saved only {saved}"
        );
        // A chunk at least the batch width is the serialized engine again.
        let (t_wide, chunks_wide, _) = timed_read(64);
        assert_eq!(chunks_wide, 1);
        assert_eq!(t_wide, t_serial, "chunk >= batch is bit-for-bit serialized");
    }

    #[test]
    fn two_chunk_write_overlaps_gather_with_pwrites() {
        let page = 64 << 10;
        let run = |io_chunk: usize| -> (Nanos, u64, Vec<u8>) {
            let h = host_chunked(io_chunk);
            h.fs().create("/wpipe", &vec![0u8; 4 * page]).unwrap();
            let fd = open(&h, "/wpipe", true);
            let src = h.gpus()[0].global().alloc(4 * page).unwrap();
            h.gpus()[0].global().write(src, &vec![7u8; 4 * page]);
            let pages: Vec<PageWrite> = (0..4)
                .map(|i| PageWrite {
                    src: src + i * page,
                    page_offset: (i * page) as u64,
                    extents: vec![(0, page as u32)],
                })
                .collect();
            let (ok, t) = call(&h, Request::WritePages { fd, pages, gpu: 0 }).unwrap();
            let RespOk::Wrote { n, .. } = ok else {
                panic!()
            };
            assert_eq!(n, 4 * page);
            let (data, _) = h.fs().read_whole("/wpipe", 0).unwrap();
            (t, h.stats().write_dma_chunks.get(), data)
        };
        let (t_serial, chunks_serial, data_serial) = run(0);
        let (t_piped, chunks_piped, data_piped) = run(2);
        assert_eq!(chunks_serial, 1);
        assert_eq!(chunks_piped, 2);
        assert_eq!(data_serial, data_piped);
        assert!(
            t_piped < t_serial,
            "pwrites of chunk 0 must hide under the gather of chunk 1 \
             ({t_piped} vs {t_serial})"
        );
    }

    #[test]
    fn single_page_requests_are_identical_at_any_chunk_setting() {
        // Window-1 paging (the paper's on-demand protocol) must be
        // bit-for-bit unaffected by the pipeline: a batch of one is one
        // chunk.
        let run = |io_chunk: usize| -> Vec<Nanos> {
            let h = host_chunked(io_chunk);
            h.fs().create_synthetic("/one", 1 << 20, 9).unwrap();
            let fd = open(&h, "/one", false);
            let dst = h.gpus()[0].global().alloc(64 << 10).unwrap();
            let mut ends = Vec::new();
            let mut issue = 0;
            for i in 0..4u64 {
                let (_, t) = h
                    .hub()
                    .call(
                        0,
                        0,
                        issue,
                        &Timings::default(),
                        Request::ReadPages {
                            fd,
                            pages: vec![PageRead {
                                offset: i * (64 << 10),
                                len: 64 << 10,
                                dst,
                            }],
                            gpu: 0,
                        },
                    )
                    .unwrap();
                issue = t;
                ends.push(t);
            }
            ends
        };
        assert_eq!(run(0), run(2), "serialized and pipelined agree at width 1");
    }

    #[test]
    fn chunk_boundary_at_eof_ships_short_and_empty_pages_correctly() {
        // A 4-page batch over a file that ends 100 bytes into page 2:
        // chunk 0 is full, chunk 1 holds a short page and a fully-empty
        // page. The short page must truncate, the empty page must produce
        // ns = 0 and no DMA extent, and the empty tail chunk must not
        // issue a DMA chunk at all.
        let page = 4096usize;
        for h in [host_chunked(2), host_chunked_proxied(2)] {
            h.fs()
                .create("/eofpipe", &vec![3u8; 2 * page + 100])
                .unwrap();
            let fd = open(&h, "/eofpipe", false);
            let dst = h.gpus()[0].global().alloc(4 * page).unwrap();
            let pages: Vec<PageRead> = (0..4)
                .map(|i| PageRead {
                    offset: (i * page) as u64,
                    len: page,
                    dst: dst + i * page,
                })
                .collect();
            let (ns, _) = read_batch(&h, fd, pages);
            assert_eq!(ns, vec![page, page, 100, 0]);
            assert_eq!(
                h.stats().bytes_h2d.get(),
                (2 * page + 100) as u64,
                "not one byte DMA'd beyond EOF"
            );
            assert_eq!(
                h.stats().read_dma_chunks.get(),
                2,
                "chunk 1 still ships its 100-byte extent; no third chunk"
            );
            let mut out = vec![0u8; 100];
            h.gpus()[0].global().read(dst + 2 * page, &mut out);
            assert!(out.iter().all(|&b| b == 3), "short page bytes landed");

            // A batch entirely past EOF: no DMA chunks at all, ns all zero.
            let before = h.stats().read_dma_chunks.get();
            let (ns, _) = read_batch(
                &h,
                fd,
                vec![PageRead {
                    offset: (8 * page) as u64,
                    len: page,
                    dst,
                }],
            );
            assert_eq!(ns, vec![0]);
            assert_eq!(h.stats().read_dma_chunks.get(), before);
        }
    }

    #[test]
    fn batch_smaller_than_one_chunk_is_one_transaction() {
        let page = 4096usize;
        let h = host_chunked(8);
        h.fs().create("/small", &vec![5u8; 3 * page]).unwrap();
        let fd = open(&h, "/small", false);
        let dst = h.gpus()[0].global().alloc(3 * page).unwrap();
        let pages: Vec<PageRead> = (0..3)
            .map(|i| PageRead {
                offset: (i * page) as u64,
                len: page,
                dst: dst + i * page,
            })
            .collect();
        let (ns, _) = read_batch(&h, fd, pages);
        assert_eq!(ns, vec![page; 3]);
        assert_eq!(
            h.stats().read_dma_chunks.get(),
            1,
            "3 pages under a chunk of 8 = one chunk, one setup"
        );
    }

    #[test]
    fn pwrite_error_mid_pipeline_fails_whole_rpc_and_daemon_survives() {
        // A WritePages batch against a read-only host descriptor: chunk
        // 0's D2H gather succeeds (the engine has already moved bytes and
        // charged the direction) before the first pwrite errors. The
        // whole RPC must fail, later chunks must never run, and the
        // daemon must keep serving.
        let page = 4096usize;
        for h in [host_chunked(2), host_chunked_proxied(2)] {
            h.fs().create("/ro", &vec![0u8; 4 * page]).unwrap();
            let fd = open(&h, "/ro", false); // read-only descriptor
            let src = h.gpus()[0].global().alloc(4 * page).unwrap();
            h.gpus()[0].global().write(src, &vec![9u8; 4 * page]);
            let pages: Vec<PageWrite> = (0..4)
                .map(|i| PageWrite {
                    src: src + i * page,
                    page_offset: (i * page) as u64,
                    extents: vec![(0, page as u32)],
                })
                .collect();
            let err = call(&h, Request::WritePages { fd, pages, gpu: 0 });
            assert!(matches!(
                err,
                Err(crate::error::GpufsError::Host(
                    hostfs::FsError::PermissionDenied(_)
                ))
            ));
            assert_eq!(
                h.stats().write_dma_chunks.get(),
                1,
                "the pipeline stops at the failing chunk; chunk 1 never gathers"
            );
            let (data, _) = h.fs().read_whole("/ro", 0).unwrap();
            assert!(data.iter().all(|&b| b == 0), "no byte reached the file");
            // The daemon is still healthy.
            let (ok, _) = call(&h, Request::Stat { path: "/ro".into() }).unwrap();
            assert!(matches!(ok, RespOk::Stat { size, .. } if size == 4 * page as u64));
        }
    }

    #[test]
    fn all_clean_write_batch_on_a_closed_descriptor_is_a_bad_descriptor() {
        // Every page clean: nothing is gathered or written, and the answer
        // is only the file's generation — which a closed descriptor does
        // not have.
        for h in [host_chunked(2), host_chunked_proxied(2)] {
            h.fs().create("/clean", &[1u8; 4096]).unwrap();
            let fd = open(&h, "/clean", true);
            call(&h, Request::Close { fd }).unwrap();
            let pages = vec![PageWrite {
                src: h.gpus()[0].global().alloc(4096).unwrap(),
                page_offset: 0,
                extents: Vec::new(),
            }];
            let err = call(&h, Request::WritePages { fd, pages, gpu: 0 });
            assert!(
                matches!(
                    err,
                    Err(crate::error::GpufsError::Host(hostfs::FsError::BadDescriptor(bad))) if bad == fd
                ),
                "{err:?}"
            );
        }
    }

    // ------------------------------------------------------------------
    // The scatter-gather ring across RPCs.
    // ------------------------------------------------------------------

    #[test]
    fn unloaded_single_page_read_costs_what_it_did_before_the_ring() {
        // One 64 KB ReadPages on an idle engine and an idle worker pool
        // costs exactly its pread, setup and transfer: nothing is running
        // to join and no draw has to wait, on any engine setting.
        let page = 64 << 10;
        for io_chunk in [0, 2, 8] {
            let h = host_chunked(io_chunk);
            h.fs().create_synthetic("/one", 4 << 20, 13).unwrap();
            let fd = open(&h, "/one", false);
            let dst = h.gpus()[0].global().alloc(page).unwrap();
            let pages = vec![PageRead {
                offset: 0,
                len: page,
                dst,
            }];
            assert_eq!(read_batch(&h, fd, pages), (vec![page], 8_543_420));
        }
    }

    /// An 8-page (4 KB pages) batch starting at page `first`.
    fn eight_pages(h: &GpufsHost, first: usize) -> Vec<PageRead> {
        let dst = h.gpus()[0].global().alloc(8 * 4096).unwrap();
        (0..8)
            .map(|i| PageRead {
                offset: ((first + i) * 4096) as u64,
                len: 4096,
                dst: dst + i * 4096,
            })
            .collect()
    }

    #[test]
    fn second_of_two_overlapping_batches_joins_and_pays_no_setup() {
        let timings = Timings::default();
        let h = host_chunked(2);
        h.fs().create("/ring", &vec![1u8; 16 * 4096]).unwrap();
        let fd = open(&h, "/ring", false);
        let (pages_a, pages_b) = (eight_pages(&h, 0), eight_pages(&h, 8));
        // Both issued at virtual time 0: the second batch's first chunk is
        // ready while the first batch's non-final chunks are on the engine.
        read_batch(&h, fd, pages_a);
        let one_batch = h.gpus()[0].dma().busy_ns().0;
        read_batch(&h, fd, pages_b);
        assert_eq!(h.stats().read_dma_chunks.get(), 8, "4 chunks a batch");
        assert_eq!(h.stats().h2d_setups.get(), 1, "the second batch joined");
        let both = h.gpus()[0].dma().busy_ns().0;
        assert_eq!(
            both,
            2 * one_batch - timings.dma_setup_ns,
            "engine time: the same bytes, one setup fewer"
        );

        // The same two batches on the serialized engine: each is one
        // chunk, nothing opens, both pay.
        let h0 = host_chunked(0);
        h0.fs().create("/ring", &vec![1u8; 16 * 4096]).unwrap();
        let fd0 = open(&h0, "/ring", false);
        let (pages_a, pages_b) = (eight_pages(&h0, 0), eight_pages(&h0, 8));
        read_batch(&h0, fd0, pages_a);
        read_batch(&h0, fd0, pages_b);
        assert_eq!(h0.stats().read_dma_chunks.get(), 2);
        assert_eq!(h0.stats().h2d_setups.get(), 2);
    }

    #[test]
    fn single_page_requests_each_pay_their_own_setup() {
        // On the paper prototype's DMA path every RPC is a one-shot
        // transaction: even back to back at one virtual instant, each
        // pays, and none leaves a ring running for the next.
        let h = host_chunked(0);
        h.fs().create("/ones", &vec![2u8; 32 * 4096]).unwrap();
        let fd = open(&h, "/ones", false);
        let dst = h.gpus()[0].global().alloc(4096).unwrap();
        for i in 0..12u64 {
            read_batch(
                &h,
                fd,
                vec![PageRead {
                    offset: i * 4096,
                    len: 4096,
                    dst,
                }],
            );
        }
        assert_eq!(h.stats().read_dma_chunks.get(), 12);
        assert_eq!(h.stats().h2d_setups.get(), 12);
        let setup = Timings::default().dma_setup_ns;
        let bw = simtime::bw_time_ns(4096, Timings::default().pcie_mb_s);
        assert_eq!(h.gpus()[0].dma().busy_ns().0, 12 * (setup + bw));
        // The registry publishes that occupancy, setup included.
        assert_eq!(row(&h, "pcie_h2d_busy_ns{gpu=0}"), 12 * (setup + bw));
        assert_eq!(row(&h, "pcie_d2h_busy_ns{gpu=0}"), 0);
        assert_eq!(row(&h, "daemon_h2d_setups"), 12);
    }

    /// 28 threadblocks' worth of single-page (16 KB) faults over a warm
    /// host cache, all issued at virtual time 0 — the schedule a resident
    /// grid produces when every block misses at once. Returns each
    /// response time and what landed in GPU memory.
    fn fault_burst(h: &GpufsHost) -> (Vec<Nanos>, Vec<u8>) {
        const PAGE: usize = 16 << 10;
        h.fs().create_synthetic("/faults", 1 << 20, 17).unwrap();
        let _ = h.fs().read_whole("/faults", 0).unwrap();
        h.fs().reset_device_time();
        let fd = open(h, "/faults", false);
        let dst = h.gpus()[0].global().alloc(28 * PAGE).unwrap();
        let ends = (0..28)
            .map(|i| {
                let pages = vec![PageRead {
                    offset: (i * PAGE) as u64,
                    len: PAGE,
                    dst: dst + i * PAGE,
                }];
                read_batch(h, fd, pages).1
            })
            .collect();
        let mut bytes = vec![0u8; 28 * PAGE];
        h.gpus()[0].global().read(dst, &mut bytes);
        (ends, bytes)
    }

    #[test]
    fn concurrent_single_page_faults_join_the_ring_under_the_worker_bound() {
        let t = Timings::default();
        let copy = simtime::bw_time_ns(16 << 10, t.host_cached_mb_s);
        let fault_cpu = t.rpc_dispatch_ns + t.host_syscall_ns + copy;

        // The prototype path: one setup per RPC. Its draws wait for the
        // one worker like any other, but the engine, at 27.9 us a fault,
        // outlasts the worker's 6 us, so the engine sets these times.
        let h0 = host_chunked(0);
        let (ends0, bytes0) = fault_burst(&h0);
        assert_eq!(h0.stats().h2d_setups.get(), 28);
        let pinned: Vec<Nanos> = (0..28)
            .map(|i| if i == 0 { 40_841 } else { 30_859 + i * 27_859 })
            .collect();
        assert_eq!(ends0, pinned);
        // Open + 28 faults, no submits: nothing ever joined.
        let open_cpu = t.rpc_dispatch_ns;
        assert_eq!(row(&h0, "daemon_worker_busy_ns"), open_cpu + 28 * fault_cpu);

        // The default engine: the first fault programs the ring, the rest
        // are ready while it runs and are appended. Same chunks, same
        // bytes, fewer setups — and a 2 us submit each on the one worker,
        // whose CPU time is now what the burst waits for.
        let h = host_chunked(crate::GpufsConfig::default().io_chunk_pages);
        let (ends, bytes) = fault_burst(&h);
        assert_eq!(bytes, bytes0);
        assert_eq!(h.stats().read_dma_chunks.get(), 28);
        assert_eq!(h.stats().bytes_h2d.get(), h0.stats().bytes_h2d.get());
        let setups = h.stats().h2d_setups.get();
        assert!((1..28).contains(&setups), "{setups} setups for 28 RPCs");
        let cpu = row(&h, "daemon_worker_busy_ns");
        assert_eq!(
            cpu,
            open_cpu + 28 * fault_cpu + (28 - setups) * t.dma_chunk_ns
        );
        let last = *ends.iter().max().unwrap();
        assert!(
            last >= cpu / h.daemon_workers() as u64,
            "last response at {last} ns outran {cpu} ns of worker CPU"
        );
        assert!(
            last < *ends0.last().unwrap() / 2,
            "{last} vs {ends0:?}: the setups saved must show"
        );

        // The prototype path with DMA excluded (Figure 5's `-DMA` leg):
        // the engine is free, so only the one worker bounds the burst.
        let free = t.without_dma();
        let fs = Arc::new(HostFs::new(HostFsConfig {
            timings: free.clone(),
            ..HostFsConfig::default()
        }));
        let gpu = Arc::new(Gpu::with_timings(0, gpusim::GpuSpec::small_test(), &free));
        let config = crate::GpufsConfig::default().with_io_chunk(0);
        let h_free = GpufsHost::with_config(fs, vec![gpu], &config);
        let (ends_free, bytes_free) = fault_burst(&h_free);
        assert_eq!(bytes_free, bytes0);
        let cpu_free = row(&h_free, "daemon_worker_busy_ns");
        assert_eq!(cpu_free, open_cpu + 28 * fault_cpu);
        let last_free = *ends_free.iter().max().unwrap();
        assert!(
            last_free >= cpu_free / h_free.daemon_workers() as u64,
            "last response at {last_free} ns outran {cpu_free} ns of worker CPU"
        );
    }

    #[test]
    fn write_gathers_join_on_their_own_direction() {
        let page = 4096usize;
        let h = host_chunked(2);
        h.fs().create("/wring", &vec![0u8; 8 * page]).unwrap();
        let fd = open(&h, "/wring", true);
        let src = h.gpus()[0].global().alloc(8 * page).unwrap();
        h.gpus()[0].global().write(src, &vec![4u8; 8 * page]);
        let batch = |first: usize| Request::WritePages {
            fd,
            pages: (first..first + 4)
                .map(|i| PageWrite {
                    src: src + i * page,
                    page_offset: (i * page) as u64,
                    extents: vec![(0, page as u32)],
                })
                .collect(),
            gpu: 0,
        };
        call(&h, batch(0)).unwrap();
        call(&h, batch(4)).unwrap();
        assert_eq!(h.stats().write_dma_chunks.get(), 4);
        assert_eq!(h.stats().d2h_setups.get(), 1);
        assert_eq!(h.stats().h2d_setups.get(), 0, "reads saw none of it");
        let (data, _) = h.fs().read_whole("/wring", 0).unwrap();
        assert!(data.iter().all(|&b| b == 4));
    }

    // ------------------------------------------------------------------
    // The engine over a backing that fails on request.
    // ------------------------------------------------------------------

    /// A file system whose `fail_at`-th `read_chunk` (counting from 0)
    /// fails; everything else is the file system's own answer.
    struct FailingReads {
        fs: HostFs,
        fail_at: usize,
        read_chunks: AtomicUsize,
    }

    impl Backing for FailingReads {
        fn open(&self, clock: &mut Clock, path: &str, flags: OpenFlags) -> Result<Opened, FsError> {
            Backing::open(&self.fs, clock, path, flags)
        }
        fn close(&self, clock: &mut Clock, fd: HostFd) -> Result<(), FsError> {
            Backing::close(&self.fs, clock, fd)
        }
        fn fsync(&self, clock: &mut Clock, fd: HostFd) -> Result<(), FsError> {
            Backing::fsync(&self.fs, clock, fd)
        }
        fn unlink(&self, clock: &mut Clock, path: &str) -> Result<(), FsError> {
            Backing::unlink(&self.fs, clock, path)
        }
        fn truncate(&self, clock: &mut Clock, fd: HostFd, size: u64) -> Result<(), FsError> {
            Backing::truncate(&self.fs, clock, fd, size)
        }
        fn stat(&self, clock: &mut Clock, path: &str) -> Result<FileStat, FsError> {
            Backing::stat(&self.fs, clock, path)
        }
        fn read_chunk(
            &self,
            worker: Option<&ServeCtx<'_>>,
            clock: &mut Clock,
            fd: HostFd,
            chunk: usize,
            pages: &mut [(u64, &mut [u8])],
            ns: &mut [usize],
        ) -> Result<(), FsError> {
            if self.read_chunks.fetch_add(1, Ordering::Relaxed) == self.fail_at {
                return Err(FsError::Protocol("injected read fault".into()));
            }
            self.fs.read_chunk(worker, clock, fd, chunk, pages, ns)
        }
        fn write_chunk(
            &self,
            worker: Option<&ServeCtx<'_>>,
            clock: &mut Clock,
            fd: HostFd,
            extents: &[(u64, &[u8])],
        ) -> Result<(usize, u64), FsError> {
            self.fs.write_chunk(worker, clock, fd, extents)
        }
    }

    #[test]
    fn read_error_mid_batch_fails_the_rpc_after_the_chunks_already_shipped() {
        // No real file system can fail the k-th chunk of a read once the
        // first went through (the descriptor is good or it is not), so the
        // engine is driven directly, over a backing that can: 8 pages in
        // chunks of 2, the read of chunk `k` fails.
        let page = 4096usize;
        for k in 0..4 {
            let backing = FailingReads {
                fs: HostFs::new(hostfs::HostFsConfig::default()),
                fail_at: k,
                read_chunks: AtomicUsize::new(0),
            };
            backing.fs.create("/flaky", &vec![7u8; 8 * page]).unwrap();
            let (fd, _) = backing
                .fs
                .open("/flaky", OpenFlags::read_only(), 0)
                .unwrap();
            let gpu = Gpu::new(0, gpusim::GpuSpec::small_test());
            let dst = gpu.global().alloc(8 * page).unwrap();
            let pages: Vec<PageRead> = (0..8)
                .map(|i| PageRead {
                    offset: (i * page) as u64,
                    len: page,
                    dst: dst + i * page,
                })
                .collect();
            let leaf = DaemonStats::default();
            let engine = Engine {
                workers: WorkerPool::new(1),
                timings: backing.fs.timings().clone(),
                io_chunk_pages: 2,
            };
            let ctx = ServeCtx {
                leaf: &leaf,
                tenant: 0,
                engine: &engine,
                queue_ns: Cell::new(0),
                cpu_ns: Cell::new(0),
            };
            let mut clock = Clock::starting_at(0);
            let got = read_pages(&backing, &gpu, &ctx, &mut clock, fd, &pages);
            assert_eq!(
                got.err(),
                Some(FsError::Protocol("injected read fault".into())),
                "chunk {k}'s failure is the RPC's"
            );
            assert_eq!(
                backing.read_chunks.load(Ordering::Relaxed),
                k + 1,
                "no chunk after the failing one is read"
            );
            // What shipped before the failure stays on the books: the
            // requester unwinds the batch, the daemon does not.
            assert_eq!(leaf.read_dma_chunks.get(), k as u64);
            assert_eq!(leaf.bytes_h2d.get(), (k * 2 * page) as u64);
            assert_eq!(leaf.h2d_setups.get(), u64::from(k > 0));
            assert_eq!((leaf.batched_rpcs.get(), leaf.pages_per_rpc.get()), (1, 8));
            let mut landed = vec![0u8; 8 * page];
            gpu.global().read(dst, &mut landed);
            assert!(landed[..k * 2 * page].iter().all(|&b| b == 7));
            assert!(landed[k * 2 * page..].iter().all(|&b| b == 0));
        }
    }
}
