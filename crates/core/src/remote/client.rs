//! The remote serve path: `daemon/handlers.rs` + `daemon/pipeline.rs`
//! with every file-system call replaced by a wire round-trip.
//!
//! A proxy-backed daemon worker enters [`serve`] exactly where a local
//! worker enters `handlers::serve`, with the same clock, stat sheets,
//! and I/O-engine knobs. The mirror is deliberately line-for-line: the
//! staged read engine keeps its chunk ring, covered-gate early response,
//! and per-page ready times; the write engine keeps its gather/pwrite
//! overlap; and stage 2 — the DMA chain with its continuation submits —
//! is not mirrored at all but the same [`DmaLane`] the local engine
//! drives, so both join the running ring identically. What changes is
//! stage 1 — instead of `fs.pread`/`fs.pwrite` against a local file
//! system, each chunk consults the host page cache and ships one
//! `ReadPages` / `WritePages` frame for the remainder, served by the
//! [`super::StorageServer`] through the same cost model.
//!
//! Worker CPU is drawn as the local engine draws it. The storage server
//! is passive — `serve_frame` runs on the calling worker's thread — so
//! the syscall and page-cache copy it spends on each page of a frame are
//! this worker's ([`ServeCtx::file_io`]); the link's share of the
//! round-trip is waiting, and a host-cache hit costs its DRAM copy.
//!
//! Under [`simtime::Timings::without_net`] with the host cache disabled,
//! every wire round-trip collapses to the server's own service time at
//! the caller's clock — so this path reproduces the local engine's
//! virtual times bit for bit, worker-bound schedules included (asserted
//! by the equivalence tests below and, end to end, by the zero-net
//! BENCH_scale compat run).

use std::sync::Arc;

use gpusim::{DevPtr, Gpu};
use hostfs::{FsError, HostFd};
use simtime::{bw_time_ns, Clock, Nanos};

use super::proto::{WireRequest, WireResponse};
use super::proxy::HostProxy;
use crate::daemon::lane::DmaLane;
use crate::daemon::pipeline::chunks;
use crate::daemon::ServeCtx;
use crate::rpc::{PageRead, PageWrite, Request, RespOk};

/// Serve one request through the proxy's wire boundary. Mirrors
/// `handlers::serve` argument-for-argument so the daemon worker loop can
/// branch between them on the presence of a proxy.
pub(crate) fn serve(
    proxy: &HostProxy,
    gpus: &[Arc<Gpu>],
    ctx: &ServeCtx<'_>,
    clock: &mut Clock,
    req: &Request,
) -> (Result<RespOk, FsError>, Nanos) {
    match req {
        Request::Open {
            path,
            write,
            create,
            truncate,
        } => {
            ctx.on(|s| s.opens.incr());
            match proxy.call(
                clock,
                &WireRequest::Open {
                    path: path.clone(),
                    write: *write,
                    create: *create,
                    truncate: *truncate,
                },
            ) {
                Ok(WireResponse::Opened {
                    fd,
                    ino,
                    size,
                    generation,
                }) => (
                    Ok(RespOk::Opened {
                        fd,
                        ino,
                        size,
                        generation,
                    }),
                    clock.now(),
                ),
                Ok(other) => (Err(unanswerable("Open", &other)), clock.now()),
                Err(e) => (Err(e), clock.now()),
            }
        }
        Request::Close { fd } => done_call(proxy, clock, &WireRequest::Close { fd: *fd }),
        Request::ReadPages { fd, pages, gpu } => {
            read_pages(proxy, &gpus[*gpu], ctx, clock, *fd, pages)
        }
        Request::WritePages { fd, pages, gpu } => {
            write_pages(proxy, &gpus[*gpu], ctx, clock, *fd, pages)
        }
        Request::Fsync { fd } => done_call(proxy, clock, &WireRequest::Fsync { fd: *fd }),
        Request::Unlink { path } => {
            done_call(proxy, clock, &WireRequest::Unlink { path: path.clone() })
        }
        Request::Truncate { fd, size } => {
            let st = proxy.fd_state(*fd);
            let r = done_call(
                proxy,
                clock,
                &WireRequest::Truncate {
                    fd: *fd,
                    size: *size,
                },
            );
            // Like write-back: this host must read its own truncation, so
            // drop every cached page past the new end of file. (Bytes
            // below `size` are untouched by a truncate and stay valid.)
            if r.0.is_ok() {
                if let Some(st) = st {
                    proxy
                        .cache()
                        .invalidate_overlapping(st.ino, *size, u64::MAX);
                }
            }
            r
        }
        Request::Stat { path } => {
            match proxy.call(clock, &WireRequest::Stat { path: path.clone() }) {
                Ok(WireResponse::Stat {
                    ino,
                    size,
                    writable,
                    generation,
                }) => (
                    Ok(RespOk::Stat {
                        ino,
                        size,
                        writable,
                        generation,
                    }),
                    clock.now(),
                ),
                Ok(other) => (Err(unanswerable("Stat", &other)), clock.now()),
                Err(e) => (Err(e), clock.now()),
            }
        }
    }
}

/// A request whose only success shape is `Done`.
fn done_call(
    proxy: &HostProxy,
    clock: &mut Clock,
    req: &WireRequest,
) -> (Result<RespOk, FsError>, Nanos) {
    match proxy.call(clock, req) {
        Ok(WireResponse::Done) => (Ok(RespOk::Done), clock.now()),
        Ok(other) => (
            Err(unanswerable("a Done-shaped request", &other)),
            clock.now(),
        ),
        Err(e) => (Err(e), clock.now()),
    }
}

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

/// The virtual cost of serving one page from the host-local cache: a
/// host DRAM copy of the page (no syscall, no wire, no disk).
fn hit_ns(proxy: &HostProxy, bytes: usize) -> Nanos {
    bw_time_ns(bytes as u64, proxy.timings().host_mem_mb_s)
}

/// The read engine of `daemon/pipeline.rs` with stage 1 replaced by
/// host-cache lookups plus one `ReadPages` frame per chunk for the
/// misses. Stage 2 is the shared [`DmaLane`]; the ring bound, covered
/// gate, and per-page ready times around it are copied unchanged.
fn read_pages(
    proxy: &HostProxy,
    gpu: &Gpu,
    ctx: &ServeCtx<'_>,
    clock: &mut Clock,
    fd: HostFd,
    pages: &[PageRead],
) -> (Result<RespOk, FsError>, Nanos) {
    if pages.len() > 1 {
        ctx.on(|s| {
            s.batched_rpcs.incr();
            s.pages_per_rpc.add(pages.len() as u64);
        });
    }
    let io_depth = ctx.engine.io_depth;
    let deep = io_depth > 2;
    let mut lane = DmaLane::new(gpu, ctx);
    let fd_state = proxy.fd_state(fd);
    let mut ns = Vec::with_capacity(pages.len());
    let mut ready: Vec<Nanos> = Vec::with_capacity(pages.len());
    let mut free_at: Vec<Nanos> = Vec::new();
    for (j, chunk) in chunks(ctx.engine.io_chunk_pages, pages) {
        if deep && j >= io_depth {
            clock.wait_until(free_at[j - io_depth]);
        }
        // Stage 1 — fill this chunk's staging buffers: host-cache hits
        // cost a local DRAM copy; the misses ride one wire round-trip,
        // which the server runs through the same pread sequence the
        // local engine would.
        let mut staging: Vec<Vec<u8>> = vec![Vec::new(); chunk.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, page) in chunk.iter().enumerate() {
            let cached = fd_state.and_then(|st| {
                proxy
                    .cache()
                    .lookup(st.ino, page.offset, st.generation, page.len)
            });
            match cached {
                Some(mut data) => {
                    data.truncate(page.len);
                    ctx.cpu(clock, hit_ns(proxy, data.len()));
                    staging[i] = data;
                }
                None => misses.push(i),
            }
        }
        if !misses.is_empty() {
            let wire_pages: Vec<(u64, u32)> = misses
                .iter()
                .map(|&i| (chunk[i].offset, chunk[i].len as u32))
                .collect();
            let issued = clock.now();
            match proxy.call(
                clock,
                &WireRequest::ReadPages {
                    fd,
                    pages: wire_pages,
                },
            ) {
                Ok(WireResponse::Read { pages: got }) => {
                    ctx.file_io(clock, issued, got.iter().map(Vec::len));
                    for (&i, data) in misses.iter().zip(got) {
                        if let Some(st) = fd_state {
                            proxy.cache().insert(
                                st.ino,
                                chunk[i].offset,
                                st.generation,
                                data.clone(),
                            );
                        }
                        staging[i] = data;
                    }
                }
                Ok(other) => return (Err(unanswerable("ReadPages", &other)), clock.now()),
                Err(e) => return (Err(e), clock.now()),
            }
        }
        // Stage 2 — ship the chunk asynchronously, exactly as the local
        // engine does.
        let parts: Vec<(&[u8], DevPtr)> = staging
            .iter()
            .zip(chunk)
            .filter(|(buf, _)| !buf.is_empty())
            .map(|(buf, page)| (buf.as_slice(), page.dst))
            .collect();
        let chunk_ready = if parts.is_empty() {
            0
        } else {
            lane.read_chunk(clock, &parts).end
        };
        free_at.push(chunk_ready);
        for buf in &staging {
            ns.push(buf.len());
            ready.push(if buf.is_empty() { 0 } else { chunk_ready });
        }
    }
    let t = if deep {
        let covered = free_at.len().saturating_sub(io_depth - 2).max(1);
        let gate = free_at[..covered].iter().copied().max().unwrap_or(0);
        gate.max(clock.now())
    } else {
        lane.end().max(clock.now())
    };
    if !deep {
        ready.fill(t);
    }
    (Ok(RespOk::Read { ns, ready }), t)
}

/// The write engine of `daemon/pipeline.rs` with the serial `pwrite`
/// lane replaced by one `WritePages` frame per chunk — write-back
/// batched over the wire. The D2H gather chain is the shared [`DmaLane`], and
/// every successfully shipped batch invalidates the written ranges in
/// the host cache so this host reads its own writes.
fn write_pages(
    proxy: &HostProxy,
    gpu: &Gpu,
    ctx: &ServeCtx<'_>,
    clock: &mut Clock,
    fd: HostFd,
    pages: &[PageWrite],
) -> (Result<RespOk, FsError>, Nanos) {
    if pages.len() > 1 {
        ctx.on(|s| {
            s.batched_write_rpcs.incr();
            s.pages_per_write_rpc.add(pages.len() as u64);
        });
    }
    let issue = clock.now();
    let fd_state = proxy.fd_state(fd);
    if pages.iter().all(|pw| pw.extents.is_empty()) {
        // The local engine answers an empty batch from the generation
        // table alone; remotely that is one payload-free frame.
        return match proxy.call(
            clock,
            &WireRequest::WritePages {
                fd,
                extents: vec![],
            },
        ) {
            Ok(WireResponse::Wrote { n, generation }) => (
                Ok(RespOk::Wrote {
                    n: n as usize,
                    generation,
                }),
                clock.now(),
            ),
            Ok(other) => (Err(unanswerable("WritePages", &other)), clock.now()),
            Err(e) => (Err(e), clock.now()),
        };
    }
    let mut lane = DmaLane::new(gpu, ctx);
    let mut written = 0usize;
    let mut generation = 0u64;
    for (_, chunk) in chunks(ctx.engine.io_chunk_pages, pages) {
        let mut srcs: Vec<(DevPtr, u64)> = Vec::new(); // (gpu addr, file off)
        let mut staging: Vec<Vec<u8>> = Vec::new();
        for pw in chunk {
            for &(off, len) in &pw.extents {
                srcs.push((pw.src + off as usize, pw.page_offset + u64::from(off)));
                staging.push(vec![0u8; len as usize]);
            }
        }
        if srcs.is_empty() {
            continue;
        }
        let mut parts: Vec<(DevPtr, &mut [u8])> = srcs
            .iter()
            .zip(staging.iter_mut())
            .map(|(&(src, _), buf)| (src, buf.as_mut_slice()))
            .collect();
        let r = lane.write_chunk(clock, issue, &mut parts);
        drop(parts);
        // This chunk's bytes must be in host memory before they can go
        // on the wire.
        clock.wait_until(r.end);
        let extents: Vec<(u64, Vec<u8>)> = srcs
            .iter()
            .zip(staging)
            .map(|(&(_, file_off), data)| (file_off, data))
            .collect();
        let ranges: Vec<(u64, u64)> = extents
            .iter()
            .map(|(off, data)| (*off, off + data.len() as u64))
            .collect();
        let issued = clock.now();
        match proxy.call(clock, &WireRequest::WritePages { fd, extents }) {
            Ok(WireResponse::Wrote { n, generation: g }) => {
                ctx.file_io(clock, issued, ranges.iter().map(|(a, b)| (b - a) as usize));
                written += n as usize;
                generation = g;
                proxy.wire().writeback_batches.incr();
                if let Some(st) = fd_state {
                    for (start, end) in ranges {
                        proxy.cache().invalidate_overlapping(st.ino, start, end);
                    }
                }
            }
            Ok(other) => return (Err(unanswerable("WritePages", &other)), clock.now()),
            Err(e) => return (Err(e), clock.now()),
        }
    }
    (
        Ok(RespOk::Wrote {
            n: written,
            generation,
        }),
        clock.now(),
    )
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

    fn local_host(chunk: usize, depth: usize) -> GpufsHost {
        let config = GpufsConfig::default()
            .with_io_chunk(chunk)
            .with_io_depth(depth);
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        GpufsHost::with_config(no_net_fs(), vec![gpu], &config)
    }

    fn proxied_host(chunk: usize, depth: usize, cache_pages: usize) -> GpufsHost {
        let config = GpufsConfig::default()
            .with_io_chunk(chunk)
            .with_io_depth(depth);
        let server = Arc::new(StorageServer::new(no_net_fs()));
        let proxy = Arc::new(HostProxy::new(server, cache_pages));
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        GpufsHost::with_proxy(proxy, vec![gpu], &config)
    }

    /// Debug-render one full daemon round-trip (result *and* completion
    /// time), so scripts can be compared across hosts as plain strings.
    fn call(h: &GpufsHost, req: Request) -> String {
        format!("{:?}", h.hub().call(0, 0, 0, 0, &Timings::default(), req))
    }

    fn open(h: &GpufsHost, path: &str, write: bool) -> u64 {
        let (ok, _) = h
            .hub()
            .call(
                0,
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

    /// A peer that answers out of protocol fails the one RPC with a typed
    /// error; the daemon worker that served it lives to serve the next.
    #[test]
    fn a_wrong_shaped_response_fails_the_rpc_without_panicking() {
        use crate::error::GpufsError;
        use crate::remote::proto::WireResponse;
        use hostfs::FsError;

        let mut h = proxied_host(2, 2, 0);
        h.fs().create("/data", &payload(PAGE * 2)).unwrap();
        let fd = open(&h, "/data", true);
        let dst = h.gpus()[0].global().alloc(PAGE).unwrap();
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
                src: dst,
                page_offset: 0,
                extents: vec![(0, 64)],
            }],
            gpu: 0,
        };
        let wrote = WireResponse::Wrote {
            n: 1,
            generation: 1,
        };
        for (req, wrong) in [
            (open_req, WireResponse::Done),
            (stat.clone(), WireResponse::Done),
            (Request::Fsync { fd }, wrote.clone()),
            (read_req(fd, &[dst], 0), wrote),
            (write_req, WireResponse::Read { pages: vec![] }),
        ] {
            let proxy = h.proxy().expect("proxied host");
            proxy.misanswer_next(wrong);
            let got = h.hub().call(0, 0, 0, 0, &Timings::default(), req);
            assert!(
                matches!(got, Err(GpufsError::Host(FsError::Protocol(_)))),
                "expected a protocol error, got {got:?}"
            );
            // Same worker pool, next request: served normally.
            let ok = h.hub().call(0, 0, 0, 0, &Timings::default(), stat.clone());
            assert!(matches!(ok, Ok((RespOk::Stat { .. }, _))), "got {ok:?}");
        }
        h.shutdown();
    }

    /// The tentpole's time-transparency claim, end to end through the
    /// daemon worker loop: with zero-cost links and the host cache off, a
    /// proxy-backed host reproduces the local host's results, virtual
    /// completion times, GPU memory contents, and daemon counters
    /// *exactly* — across the serialized, pipelined, and deep engines, and
    /// whether or not the worker pool is the bottleneck.
    #[test]
    fn zero_net_proxy_daemon_matches_the_local_daemon_exactly() {
        for (chunk, depth) in [(0, 2), (2, 2), (2, 4)] {
            let mut local = local_host(chunk, depth);
            let mut remote = proxied_host(chunk, depth, 0);
            assert_eq!(
                transcript(&local),
                transcript(&remote),
                "engine divergence at io_chunk_pages={chunk}, io_depth={depth}"
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

            let (local, remote) = (local_host(chunk, depth), proxied_host(chunk, depth, 0));
            let script = burst_transcript(&local);
            assert_eq!(
                script,
                burst_transcript(&remote),
                "pool-charge divergence at io_chunk_pages={chunk}, io_depth={depth}"
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
        let h = proxied_host(2, 2, 0);
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
        let mut local = local_host(2, 2);
        let mut remote = proxied_host(2, 2, 64);
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
        let h = proxied_host(0, 2, 64);
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
