//! The proxied daemon's storage: [`Backing`] implemented on
//! [`HostProxy`].
//!
//! A proxy-backed daemon worker runs the same `handlers::serve` and the
//! same staged engine (`daemon/pipeline.rs`) as a local one; this file is
//! only what those find under the storage seam when the file system is
//! on another host. A metadata call is one frame. A read chunk consults
//! the host page cache and ships one `ReadPages` frame for the misses; a
//! write chunk is one `WritePages` frame — write-back batched over the
//! wire — after which the written ranges leave the host cache, so this
//! host reads its own writes. The [`super::StorageServer`] answers every
//! frame through [`hostfs::HostFs`]'s implementation of the same trait,
//! naming no worker: the syscall and page-cache copy it spends on each
//! page of a frame are drawn here, by the worker that shipped the frame,
//! when the response is back ([`ServeCtx::file_io`]). The link's share of
//! the round-trip is waiting, and a host-cache hit costs its DRAM copy.
//!
//! A response is the peer's: one of the wrong shape, a `Read` with the
//! wrong number of pages or a page longer than was asked for, a `Wrote`
//! that claims more bytes than were sent — each fails the one RPC with
//! [`FsError::Protocol`] before anything is cached, counted or DMA'd.
//!
//! Under [`simtime::Timings::without_net`] with the host cache disabled,
//! every wire round-trip collapses to the server's own service time at
//! the caller's clock — so a proxied daemon reproduces a local daemon's
//! virtual times bit for bit, worker-bound schedules included (asserted
//! by the transcript-equality tests below).

use hostfs::{FsError, HostFd, OpenFlags};
use simtime::{bw_time_ns, Clock};

use super::proto::{WireRequest, WireResponse};
use super::proxy::HostProxy;
use crate::daemon::backing::{Backing, FileStat, Opened};
use crate::daemon::ServeCtx;

/// The storage server answered a request with a response of the wrong
/// shape. The response is peer-controlled, so this fails the one RPC with
/// a typed error — naming the response's kind, not its payload — rather
/// than taking the daemon worker down.
fn unanswerable(what: &str, got: &WireResponse) -> FsError {
    let kind = match got {
        WireResponse::Opened { .. } => "Opened",
        WireResponse::Read { .. } => "Read",
        WireResponse::Wrote { .. } => "Wrote",
        WireResponse::Stat { .. } => "Stat",
        WireResponse::Done => "Done",
        WireResponse::Err(_) => "Err",
    };
    FsError::Protocol(format!("storage server answered {what} with {kind}"))
}

/// The only success shape of close, fsync, unlink and truncate.
fn done(resp: WireResponse) -> Result<(), FsError> {
    match resp {
        WireResponse::Done => Ok(()),
        other => Err(unanswerable("a Done-shaped request", &other)),
    }
}

impl Backing for HostProxy {
    fn open(&self, clock: &mut Clock, path: &str, flags: OpenFlags) -> Result<Opened, FsError> {
        let req = WireRequest::Open {
            path: path.to_owned(),
            write: flags.write,
            create: flags.create,
            truncate: flags.truncate,
        };
        match self.call(clock, &req)? {
            WireResponse::Opened {
                fd,
                ino,
                size,
                generation,
            } => Ok(Opened {
                fd,
                ino,
                size,
                generation,
            }),
            other => Err(unanswerable("Open", &other)),
        }
    }

    fn close(&self, clock: &mut Clock, fd: HostFd) -> Result<(), FsError> {
        self.call(clock, &WireRequest::Close { fd }).and_then(done)
    }

    fn fsync(&self, clock: &mut Clock, fd: HostFd) -> Result<(), FsError> {
        self.call(clock, &WireRequest::Fsync { fd }).and_then(done)
    }

    fn unlink(&self, clock: &mut Clock, path: &str) -> Result<(), FsError> {
        let path = path.to_owned();
        self.call(clock, &WireRequest::Unlink { path })
            .and_then(done)
    }

    fn truncate(&self, clock: &mut Clock, fd: HostFd, size: u64) -> Result<(), FsError> {
        let st = self.fd_state(fd);
        self.call(clock, &WireRequest::Truncate { fd, size })
            .and_then(done)?;
        // Like write-back: this host must read its own truncation, so
        // drop every cached page past the new end of file. (Bytes below
        // `size` are untouched by a truncate and stay valid.)
        if let Some(st) = st {
            self.cache().invalidate_overlapping(st.ino, size, u64::MAX);
        }
        Ok(())
    }

    fn stat(&self, clock: &mut Clock, path: &str) -> Result<FileStat, FsError> {
        let path = path.to_owned();
        match self.call(clock, &WireRequest::Stat { path })? {
            WireResponse::Stat {
                ino,
                size,
                writable,
                generation,
            } => Ok(FileStat {
                ino,
                size,
                writable,
                generation,
            }),
            other => Err(unanswerable("Stat", &other)),
        }
    }

    /// Host-cache hits cost a local DRAM copy; the misses ride one wire
    /// round-trip, which the server runs through the pread sequence a
    /// local daemon would. Each hit or wire page is copied into its
    /// destination once, and a wire page then moves into the host cache.
    fn read_chunk(
        &self,
        worker: Option<&ServeCtx<'_>>,
        clock: &mut Clock,
        fd: HostFd,
        _chunk: usize,
        pages: &mut [(u64, &mut [u8])],
        ns: &mut [usize],
    ) -> Result<(), FsError> {
        let fd_state = self.fd_state(fd);
        let mut misses: Vec<usize> = Vec::new();
        for (i, (offset, dst)) in pages.iter_mut().enumerate() {
            let hit = fd_state
                .is_some_and(|st| self.cache().read_into(st.ino, *offset, st.generation, dst));
            if hit {
                let copy_ns = bw_time_ns(dst.len() as u64, self.timings().host_mem_mb_s);
                match worker {
                    Some(w) => w.cpu(clock, copy_ns),
                    None => clock.advance(copy_ns),
                }
                ns[i] = dst.len();
            } else {
                misses.push(i);
            }
        }
        if misses.is_empty() {
            return Ok(());
        }
        let wire = misses
            .iter()
            .map(|&i| (pages[i].0, pages[i].1.len() as u32))
            .collect();
        let issued = clock.now();
        let req = WireRequest::ReadPages { fd, pages: wire };
        let got = match self.call(clock, &req)? {
            WireResponse::Read { pages: got } => got,
            other => return Err(unanswerable("ReadPages", &other)),
        };
        // One page too few would leave a hole where there is data; one
        // too long would be DMA'd past its frame into the neighbour's.
        let fits = |(&i, data): (&usize, &Vec<u8>)| data.len() <= pages[i].1.len();
        if got.len() != misses.len() || !misses.iter().zip(&got).all(fits) {
            return Err(FsError::Protocol(
                "storage server answered ReadPages with the wrong page count or an overlong page"
                    .into(),
            ));
        }
        if let Some(w) = worker {
            w.file_io(clock, issued, got.iter().map(Vec::len));
        }
        for (&i, data) in misses.iter().zip(got) {
            let (offset, dst) = &mut pages[i];
            dst[..data.len()].copy_from_slice(&data);
            ns[i] = data.len();
            if let Some(st) = fd_state {
                self.cache().insert(st.ino, *offset, st.generation, data);
            }
        }
        Ok(())
    }

    fn write_chunk(
        &self,
        worker: Option<&ServeCtx<'_>>,
        clock: &mut Clock,
        fd: HostFd,
        extents: &[(u64, &[u8])],
    ) -> Result<(usize, u64), FsError> {
        let fd_state = self.fd_state(fd);
        let ranges: Vec<(u64, u64)> = extents
            .iter()
            .map(|&(off, data)| (off, off + data.len() as u64))
            .collect();
        // The wire request owns its payload.
        let extents = extents
            .iter()
            .map(|&(off, data)| (off, data.to_vec()))
            .collect();
        let sent: u64 = ranges.iter().map(|(start, end)| end - start).sum();
        let issued = clock.now();
        let (n, generation) = match self.call(clock, &WireRequest::WritePages { fd, extents })? {
            WireResponse::Wrote { n, generation } if n <= sent => (n, generation),
            WireResponse::Wrote { n, .. } => {
                return Err(FsError::Protocol(format!(
                    "storage server wrote {n} of the {sent} bytes it was sent"
                )))
            }
            other => return Err(unanswerable("WritePages", &other)),
        };
        if let Some(w) = worker {
            w.file_io(clock, issued, ranges.iter().map(|(a, b)| (b - a) as usize));
        }
        // The payload-free frame of a batch with nothing dirty is not a
        // write-back.
        if !ranges.is_empty() {
            self.wire().writeback_batches.incr();
        }
        if let Some(st) = fd_state {
            for (start, end) in ranges {
                self.cache().invalidate_overlapping(st.ino, start, end);
            }
        }
        Ok((n as usize, generation))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpusim::{DevPtr, Gpu, GpuSpec};
    use hostfs::{HostFs, HostFsConfig};
    use simtime::Timings;

    use crate::config::GpufsConfig;
    use crate::daemon::GpufsHost;
    use crate::remote::{HostProxy, StorageServer};
    use crate::rpc::{PageRead, PageWrite, Request, RespOk};

    const PAGE: usize = 4096;

    fn no_net_fs() -> Arc<HostFs> {
        let config = HostFsConfig {
            timings: Timings::default().without_net(),
            ..HostFsConfig::default()
        };
        Arc::new(HostFs::new(config))
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 13) as u8).collect()
    }

    fn local_host(chunk: usize) -> GpufsHost {
        let config = GpufsConfig::default().with_io_chunk(chunk);
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        GpufsHost::with_config(no_net_fs(), vec![gpu], &config)
    }

    fn proxied_host(chunk: usize, cache_pages: usize) -> GpufsHost {
        let config = GpufsConfig::default().with_io_chunk(chunk);
        let server = Arc::new(StorageServer::new(no_net_fs()));
        let proxy = Arc::new(HostProxy::new(server, cache_pages));
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        GpufsHost::with_proxy(proxy, vec![gpu], &config)
    }

    /// Debug-render one full daemon round-trip (result *and* completion
    /// time), so scripts can be compared across hosts as plain strings.
    fn call(h: &GpufsHost, req: Request) -> String {
        format!("{:?}", h.hub().call(0, 0, 0, &Timings::default(), req))
    }

    fn open(h: &GpufsHost, path: &str, write: bool) -> u64 {
        let (ok, _) = h
            .hub()
            .call(
                0,
                0,
                0,
                &Timings::default(),
                Request::Open {
                    path: path.into(),
                    write,
                    create: false,
                    truncate: false,
                },
            )
            .unwrap();
        let RespOk::Opened { fd, .. } = ok else {
            panic!("expected Opened, got {ok:?}")
        };
        fd
    }

    fn read_req(fd: u64, dsts: &[DevPtr], first_page: u64) -> Request {
        Request::ReadPages {
            fd,
            pages: dsts
                .iter()
                .enumerate()
                .map(|(i, &dst)| PageRead {
                    offset: (first_page + i as u64) * PAGE as u64,
                    len: PAGE,
                    dst,
                })
                .collect(),
            gpu: 0,
        }
    }

    /// Run the identical request script against a host and transcribe
    /// every (result, completion-time) pair plus what landed in GPU
    /// memory. The script covers all eight request kinds, a short-at-EOF
    /// page, a page fully past EOF, and two error paths.
    fn transcript(h: &GpufsHost) -> Vec<String> {
        let mut out = Vec::new();
        h.fs()
            .create("/data", &payload(PAGE * 5 + PAGE / 2))
            .unwrap();
        let fd = open(h, "/data", false);
        let dsts: Vec<DevPtr> = (0..7)
            .map(|_| h.gpus()[0].global().alloc(PAGE).unwrap())
            .collect();
        out.push(call(h, read_req(fd, &dsts, 0)));
        let wfd = open(h, "/data", true);
        out.push(call(
            h,
            Request::WritePages {
                fd: wfd,
                pages: vec![
                    PageWrite {
                        src: dsts[0],
                        page_offset: 0,
                        extents: vec![(16, 64), (512, 128)],
                    },
                    PageWrite {
                        src: dsts[1],
                        page_offset: PAGE as u64,
                        extents: vec![(0, 256)],
                    },
                ],
                gpu: 0,
            },
        ));
        out.push(call(h, Request::Fsync { fd: wfd }));
        out.push(call(
            h,
            Request::Stat {
                path: "/data".into(),
            },
        ));
        out.push(call(
            h,
            Request::Truncate {
                fd: wfd,
                size: PAGE as u64 * 3,
            },
        ));
        // Reread after the truncate: pages now past EOF move no bytes.
        out.push(call(h, read_req(fd, &dsts, 0)));
        out.push(call(h, Request::Close { fd: wfd }));
        out.push(call(h, Request::Close { fd }));
        out.push(call(
            h,
            Request::Unlink {
                path: "/nope".into(),
            },
        ));
        out.push(call(
            h,
            Request::Open {
                path: "/missing".into(),
                write: false,
                create: false,
                truncate: false,
            },
        ));
        for &dst in &dsts {
            let mut buf = vec![0u8; PAGE];
            h.gpus()[0].global().read(dst, &mut buf);
            out.push(format!("{buf:?}"));
        }
        out.push(format!("{:?}", h.stats().snapshot()));
        out
    }

    /// A schedule that saturates the one daemon worker: 28 single-page
    /// faults and 4 single-extent write-backs, every one issued at virtual
    /// time 0. On the chunked engines the faults join the running ring, so
    /// what each response waits for is the CPU time the requests before it
    /// drew from the worker pool — any difference in what the two serve
    /// paths charge it shows up in every later completion time.
    fn burst_transcript(h: &GpufsHost) -> Vec<String> {
        h.fs().create("/burst", &payload(PAGE * 32)).unwrap();
        let fd = open(h, "/burst", true);
        let dsts: Vec<DevPtr> = (0..28)
            .map(|_| h.gpus()[0].global().alloc(PAGE).unwrap())
            .collect();
        let mut out: Vec<String> = (0..28)
            .map(|i| call(h, read_req(fd, &dsts[i..=i], i as u64)))
            .collect();
        for (i, &src) in dsts.iter().take(4).enumerate() {
            out.push(call(
                h,
                Request::WritePages {
                    fd,
                    pages: vec![PageWrite {
                        src,
                        page_offset: ((28 + i) * PAGE) as u64,
                        extents: vec![(0, PAGE as u32)],
                    }],
                    gpu: 0,
                },
            ));
        }
        out.push(format!("{:?}", h.stats().snapshot()));
        let snap = h.registry().snapshot();
        out.extend(
            snap.iter()
                .filter(|(k, _)| k == "daemon_worker_busy_ns")
                .map(|row| format!("{row:?}")),
        );
        out
    }

    /// A peer that answers out of protocol — the wrong shape, or the right
    /// shape with content that does not fit the request — fails the one
    /// RPC with a typed error before any of it is cached, counted or
    /// DMA'd; the daemon worker that served it lives to serve the next.
    #[test]
    fn a_wrong_shaped_response_fails_the_rpc_without_panicking() {
        use crate::error::GpufsError;
        use crate::remote::proto::WireResponse;
        use hostfs::FsError;

        let mut h = proxied_host(2, 64);
        h.fs().create("/data", &payload(PAGE * 2)).unwrap();
        let fd = open(&h, "/data", true);
        let dsts: Vec<DevPtr> = (0..2)
            .map(|_| h.gpus()[0].global().alloc(PAGE).unwrap())
            .collect();
        let stat = Request::Stat {
            path: "/data".into(),
        };
        let open_req = Request::Open {
            path: "/data".into(),
            write: false,
            create: false,
            truncate: false,
        };
        let write_req = Request::WritePages {
            fd,
            pages: vec![PageWrite {
                src: dsts[0],
                page_offset: 0,
                extents: vec![(0, 64)],
            }],
            gpu: 0,
        };
        let wrote = |n| WireResponse::Wrote { n, generation: 1 };
        let read = |lens: &[usize]| WireResponse::Read {
            pages: lens.iter().map(|&len| vec![0x5a; len]).collect(),
        };
        for (req, wrong) in [
            (open_req, WireResponse::Done),
            (stat.clone(), WireResponse::Done),
            (Request::Fsync { fd }, wrote(1)),
            (read_req(fd, &dsts[..1], 0), wrote(1)),
            (write_req.clone(), read(&[])),
            // Well-shaped, wrong content: a page short of the two asked
            // for, a page a byte longer than asked for, and more bytes
            // written than were sent.
            (read_req(fd, &dsts, 0), read(&[PAGE])),
            (read_req(fd, &dsts[..1], 0), read(&[PAGE + 1])),
            (write_req, wrote(65)),
        ] {
            let proxy = h.proxy().expect("proxied host");
            let before = (h.stats().bytes_h2d.get(), proxy.cache().len());
            proxy.misanswer_next(wrong);
            let got = h.hub().call(0, 0, 0, &Timings::default(), req);
            assert!(
                matches!(got, Err(GpufsError::Host(FsError::Protocol(_)))),
                "expected a protocol error, got {got:?}"
            );
            assert_eq!(
                (h.stats().bytes_h2d.get(), proxy.cache().len()),
                before,
                "nothing of a rejected response is DMA'd or cached"
            );
            // Same worker pool, next request: served normally.
            let ok = h.hub().call(0, 0, 0, &Timings::default(), stat.clone());
            assert!(matches!(ok, Ok((RespOk::Stat { .. }, _))), "got {ok:?}");
        }
        assert_eq!(h.proxy().expect("proxied host").cache().len(), 0);
        h.shutdown();
    }

    /// The tentpole's time-transparency claim, end to end through the
    /// daemon worker loop: with zero-cost links and the host cache off, a
    /// proxy-backed host reproduces the local host's results, virtual
    /// completion times, GPU memory contents, and daemon counters
    /// *exactly* — across the serialized and pipelined engines, and
    /// whether or not the worker pool is the bottleneck.
    #[test]
    fn zero_net_proxy_daemon_matches_the_local_daemon_exactly() {
        for chunk in [0, 2] {
            let mut local = local_host(chunk);
            let mut remote = proxied_host(chunk, 0);
            assert_eq!(
                transcript(&local),
                transcript(&remote),
                "engine divergence at io_chunk_pages={chunk}"
            );
            // The script's two ReadPages both issue at virtual time 0. On
            // the chunked engines the reread's first chunk finds the ring
            // the first batch left running and joins it — on both hosts
            // alike, through the one shared lane; the serialized engine's
            // one-shot transactions each pay their own setup.
            let want = if chunk == 0 { 2 } else { 1 };
            assert_eq!(local.stats().h2d_setups.get(), want);
            assert_eq!(remote.stats().h2d_setups.get(), want);
            local.shutdown();
            remote.shutdown();

            let (local, remote) = (local_host(chunk), proxied_host(chunk, 0));
            let script = burst_transcript(&local);
            assert_eq!(
                script,
                burst_transcript(&remote),
                "pool-charge divergence at io_chunk_pages={chunk}"
            );
            assert!(script
                .last()
                .unwrap()
                .starts_with("(\"daemon_worker_busy_ns"));
            let setups = local.stats().h2d_setups.get();
            if chunk == 0 {
                assert_eq!(setups, 28);
            } else {
                assert!(setups < 28, "the burst must join: {setups} setups");
            }
        }
    }

    /// Stage 2 is the shared lane, so a proxied daemon's DMA shows up in
    /// a trace exactly like a local one's: `dma` / `gather` spans over
    /// `[issue, end]`, split into queueing and service, marked when the
    /// chunk joined an open transaction.
    #[test]
    fn proxied_stage_two_emits_the_lane_spans() {
        let h = proxied_host(2, 0);
        h.set_tracing(true);
        let root = h.tracer().root("script");
        let _ = transcript(&h);
        root.finish(0, 1);
        let spans = h.tracer().snapshot();
        let attr = |s: &obs::SpanRecord, key: &str| {
            s.attrs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("{} span without `{key}`", s.name))
        };
        let dma: Vec<_> = spans.iter().filter(|s| s.name == "dma").collect();
        let gather: Vec<_> = spans.iter().filter(|s| s.name == "gather").collect();
        assert_eq!(dma.len() as u64, h.stats().read_dma_chunks.get());
        assert_eq!(gather.len() as u64, h.stats().write_dma_chunks.get());
        assert!(!dma.is_empty() && !gather.is_empty());
        for s in dma.iter().chain(&gather) {
            assert_eq!(
                attr(s, "queue_ns") + attr(s, "service_ns"),
                s.end - s.start,
                "{} span extent is queue + service",
                s.name
            );
        }
        // One setup for the script's two read batches: the other batch's
        // first chunk carries the join mark.
        let firsts = dma.iter().filter(|s| attr(s, "chunk") == 0);
        assert_eq!(firsts.map(|s| attr(s, "joined")).sum::<u64>(), 1);
    }

    /// The host cache changes virtual time (hits cost a DRAM copy, not a
    /// wire round-trip), but never what the GPU reads.
    #[test]
    fn cached_proxy_preserves_data_and_results() {
        let mut local = local_host(2);
        let mut remote = proxied_host(2, 64);
        let a = transcript(&local);
        let b = transcript(&remote);
        // Compare only the GPU-memory and counter lines (the data
        // plane): the timing lines legitimately differ once hits bypass
        // the wire.
        let data = |t: &[String]| -> Vec<String> {
            t.iter().filter(|s| s.starts_with('[')).cloned().collect()
        };
        assert_eq!(data(&a), data(&b));
        local.shutdown();
        remote.shutdown();
    }

    /// Satellite (b): the host-cache counters are exact, not approximate.
    /// One batch of four pages misses four times; the repeat hits four
    /// times without touching the wire; a write-back invalidates exactly
    /// the overlapped page; a close-to-open reopen invalidates the rest
    /// lazily (on the next lookup, never eagerly).
    #[test]
    fn host_cache_counters_are_exact_through_the_daemon() {
        let h = proxied_host(0, 64);
        #[allow(clippy::expect_used)]
        let proxy = Arc::clone(h.proxy().expect("proxied host"));
        h.fs().create("/c", &payload(PAGE * 4)).unwrap();
        let dsts: Vec<DevPtr> = (0..4)
            .map(|_| h.gpus()[0].global().alloc(PAGE).unwrap())
            .collect();

        let fd = open(&h, "/c", false);
        let wire_after_open = proxy.wire().wire_rpcs.get();
        call(&h, read_req(fd, &dsts, 0));
        let c = proxy.cache().stats();
        assert_eq!((c.hits.get(), c.misses.get()), (0, 4));
        assert_eq!(c.insertions.get(), 4);
        assert_eq!(proxy.wire().wire_rpcs.get(), wire_after_open + 1);

        // All four pages hit: no wire traffic at all for the repeat.
        call(&h, read_req(fd, &dsts, 0));
        let c = proxy.cache().stats();
        assert_eq!((c.hits.get(), c.misses.get()), (4, 4));
        assert_eq!(proxy.wire().wire_rpcs.get(), wire_after_open + 1);

        // A write-back batch invalidates exactly the overlapped page.
        let wfd = open(&h, "/c", true);
        call(
            &h,
            Request::WritePages {
                fd: wfd,
                pages: vec![PageWrite {
                    src: dsts[1],
                    page_offset: PAGE as u64,
                    extents: vec![(0, 64)],
                }],
                gpu: 0,
            },
        );
        assert_eq!(proxy.wire().writeback_batches.get(), 1);
        assert_eq!(proxy.cache().len(), 3);
        call(&h, read_req(fd, &dsts, 0));
        let c = proxy.cache().stats();
        assert_eq!((c.hits.get(), c.misses.get()), (7, 5));
        assert_eq!(c.insertions.get(), 5);
        assert_eq!(
            c.lazy_invalidations.get(),
            0,
            "write-back removal is not lazy invalidation"
        );

        // Close-to-open: the reopened descriptor sees the writer's
        // generation, so every surviving entry is invalidated lazily on
        // its next lookup — exactly four, none of them eagerly.
        call(&h, Request::Close { fd: wfd });
        call(&h, Request::Close { fd });
        let fd2 = open(&h, "/c", false);
        assert_eq!(proxy.cache().len(), 4, "reopen alone evicts nothing");
        call(&h, read_req(fd2, &dsts, 0));
        let c = proxy.cache().stats();
        assert_eq!(c.lazy_invalidations.get(), 4);
        assert_eq!((c.hits.get(), c.misses.get()), (7, 9));
        assert_eq!(c.insertions.get(), 9);
    }
}
