//! The `layers` pass: host nanoseconds per call into each layer's public
//! functions, called directly, single-threaded and — where the structure
//! is shared between threadblocks or daemon workers — from `nproc`
//! threads at once (`_mt`).
//!
//! These are the first wall-clock readings of the structures themselves
//! (the repository's figures are all virtual time). They locate a change
//! in `host_ops_per_s`; they are not a target in themselves.

use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use gpufs::cache::{diff_extents, FrameArena, PageState, RadixTree, Snapshot};
use gpufs::remote::proto::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
};
use gpufs::{GOpenMode, GpufsConfig, HostPageCache, ShardStrategy, WorkQueue};
use gpusim::{BlockCtx, Gpu, Grid};
use hostfs::OpenFlags;
use simtime::{BandwidthResource, Timings};

use crate::rig::{c2075, paper_fs, Rig};
use crate::stats::{median, Rng};
use crate::sys::nproc;

/// Time `batch` (which performs `ops` operations and returns how long
/// they took) repeatedly for `budget`, at least three times (a zero
/// budget — the smoke pass — runs it once); the median nanoseconds per
/// operation.
fn ns_per_op(budget: Duration, ops: u64, mut batch: impl FnMut() -> Duration) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.is_empty() || (!budget.is_zero() && (per_op.len() < 3 || start.elapsed() < budget))
    {
        per_op.push(batch().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

/// Time a closure.
fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Run `work(thread)` on `nproc` threads released together; how long
/// until the last one finished.
fn timed_mt(work: impl Fn(usize) + Sync) -> Duration {
    let n = nproc();
    let gate = Barrier::new(n + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let (gate, work) = (&gate, &work);
                s.spawn(move || {
                    gate.wait();
                    work(t);
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("micro worker panicked");
        }
        t0.elapsed()
    })
}

/// Run `body` as the only threadblock of a kernel on `rig` and return
/// what it measured: g* calls need a `BlockCtx`, and the clock is read
/// inside the block so the launch itself is not in the reading.
fn in_kernel(rig: &Rig, body: impl Fn(&mut BlockCtx<'_>) -> Duration + Sync) -> Duration {
    let took = Mutex::new(Duration::ZERO);
    rig.gpu.launch(Grid::new(1, 256), 0, |blk| {
        *took.lock().expect("single block") = body(blk);
    });
    took.into_inner().expect("single block")
}

/// Every `micro.*` row. `budget` is shared equally; `smoke` runs each
/// batch once.
#[must_use]
pub fn pass(budget: Duration, smoke: bool) -> Vec<(&'static str, f64)> {
    let each = if smoke { Duration::ZERO } else { budget / 24 };
    let mut rows = Vec::with_capacity(24);
    cache_rows(each, &mut rows);
    api_rows(each, &mut rows);
    device_rows(each, &mut rows);
    remote_rows(each, &mut rows);
    obs_rows(each, &mut rows);
    rows
}

fn cache_rows(each: Duration, rows: &mut Vec<(&'static str, f64)>) {
    const PAGES: u64 = 4096;
    const OPS: u64 = 200_000;
    let tree = RadixTree::new();
    for p in 0..PAGES {
        let _ = tree.get_or_insert(p);
    }
    let mut order: Vec<u64> = (0..PAGES).collect();
    Rng::new(1, 7).shuffle(&mut order);
    let lookups = |skew: usize| {
        for i in 0..OPS as usize {
            black_box(tree.lookup(order[(i + skew) % PAGES as usize]));
        }
    };
    rows.push((
        "micro.cache.radix_lookup_ns",
        ns_per_op(each, OPS, || timed(|| lookups(0))),
    ));
    rows.push((
        "micro.cache.radix_lookup_mt_ns",
        ns_per_op(each, OPS, || timed_mt(|t| lookups(t * 997))),
    ));

    // One resident page: attach a frame under the lock, as paging does.
    let fp = tree.get_or_insert(7);
    fp.lock();
    fp.begin_update();
    fp.set_frame(Some(0));
    fp.set_state(PageState::Ready);
    fp.end_update();
    fp.unlock();
    rows.push((
        "micro.cache.pin_lockfree_ns",
        ns_per_op(each, OPS, || {
            timed(|| {
                for _ in 0..OPS {
                    if let Ok(Snapshot::Pinned(f)) = fp.try_pin_lockfree() {
                        black_box(f);
                        fp.unpin();
                    }
                }
            })
        }),
    ));
    rows.push((
        "micro.cache.pin_locked_ns",
        ns_per_op(each, OPS, || {
            timed(|| {
                for _ in 0..OPS {
                    if let Snapshot::Pinned(f) = fp.pin_locked() {
                        black_box(f);
                        fp.unpin();
                    }
                }
            })
        }),
    ));

    let gpu = Gpu::with_timings(0, c2075(64 << 20), &Timings::paper_platform());
    let arena = FrameArena::new(gpu.global(), 4 << 10, 1024, 8).expect("arena fits");
    let churn = |hint: usize| {
        for _ in 0..OPS {
            if let Some(f) = arena.alloc(hint) {
                arena.release(hint, black_box(f));
            }
        }
    };
    rows.push((
        "micro.cache.frame_alloc_release_ns",
        ns_per_op(each, OPS, || timed(|| churn(0))),
    ));
    rows.push((
        "micro.cache.frame_alloc_release_mt_ns",
        ns_per_op(each, OPS, || timed_mt(churn)),
    ));

    // A 64 KB page whose middle quarter was overwritten: the rmw case.
    let pristine: Vec<u8> = (0..64 << 10).map(|i| (i * 31 + 7) as u8).collect();
    let mut working = pristine.clone();
    for b in &mut working[24 << 10..40 << 10] {
        *b = b.wrapping_add(1);
    }
    rows.push((
        "micro.cache.diff_extents_ns_per_page",
        ns_per_op(each, 16, || {
            timed(|| {
                for _ in 0..16 {
                    black_box(diff_extents(black_box(&working), &pristine, 64));
                }
            })
        }),
    ));
}

fn api_rows(each: Duration, rows: &mut Vec<(&'static str, f64)>) {
    const PAGE: usize = 64 << 10;
    let fs = paper_fs(&Timings::paper_platform());
    fs.create_synthetic("/hot", 4 << 20, 11).expect("create");
    fs.create_synthetic("/cold", 64 << 20, 12).expect("create");
    fs.mkdir_p("/m").expect("mkdir");
    for i in 0..1024 {
        fs.create(&format!("/m/f{i:04}"), b"x").expect("create");
    }
    for path in ["/hot", "/cold"] {
        let _ = fs.read_whole(path, 0).expect("warm host cache");
    }

    // Hit paths on one warm mount.
    let hot = Rig::untraced(&fs, &GpufsConfig::new(PAGE, 16 << 20));
    let mount = &hot.mount;
    in_kernel(&hot, |blk| {
        let fd = mount.open(blk, "/hot", GOpenMode::ReadOnly).expect("open");
        let mut buf = vec![0u8; 4 << 20];
        mount.read(blk, &fd, 0, &mut buf).expect("warm gpu cache");
        mount.close(blk, fd).expect("close");
        Duration::ZERO
    });
    const OPS: u64 = 50_000;
    rows.push((
        "micro.api.gread_hit_4k_ns",
        ns_per_op(each, OPS, || {
            in_kernel(&hot, |blk| {
                let fd = mount.open(blk, "/hot", GOpenMode::ReadOnly).expect("open");
                let mut buf = [0u8; 4 << 10];
                let took = timed(|| {
                    for i in 0..OPS {
                        let off = (i * 4096 * 7) % (4 << 20);
                        black_box(mount.read(blk, &fd, off, &mut buf).expect("hit"));
                    }
                });
                mount.close(blk, fd).expect("close");
                took
            })
        }),
    ));
    rows.push((
        "micro.api.gmmap_hit_ns",
        ns_per_op(each, OPS, || {
            in_kernel(&hot, |blk| {
                let fd = mount.open(blk, "/hot", GOpenMode::ReadOnly).expect("open");
                let took = timed(|| {
                    for i in 0..OPS {
                        let off = (i * PAGE as u64 * 5) % (4 << 20);
                        let map = mount.mmap(blk, &fd, off, PAGE).expect("hit");
                        black_box(map.len());
                        mount.munmap(blk, map);
                    }
                });
                mount.close(blk, fd).expect("close");
                took
            })
        }),
    ));
    // gopen of a parked file revives it from the closed table; the
    // gclose that follows parks it again. One pair per operation.
    rows.push((
        "micro.api.gopen_revive_ns",
        ns_per_op(each, OPS, || {
            in_kernel(&hot, |blk| {
                timed(|| {
                    for _ in 0..OPS {
                        let fd = mount
                            .open(blk, "/hot", GOpenMode::ReadOnly)
                            .expect("revive");
                        mount.close(blk, fd).expect("park");
                    }
                })
            })
        }),
    ));
    drop(hot);

    // Miss paths need a mount that has seen nothing: one per batch,
    // built outside the reading.
    let cold_cfg = GpufsConfig::new(PAGE, 128 << 20);
    rows.push((
        "micro.rpc.roundtrip_ns",
        ns_per_op(each, 1024, || {
            let rig = Rig::untraced(&fs, &cold_cfg);
            let m = &rig.mount;
            in_kernel(&rig, |blk| {
                let paths: Vec<String> = (0..1024).map(|i| format!("/m/f{i:04}")).collect();
                timed(|| {
                    // A never-seen path: one Open round trip through the
                    // hub, a daemon worker and the host file system.
                    for p in &paths {
                        black_box(m.open(blk, p, GOpenMode::ReadOnly).expect("open"));
                    }
                })
            })
        }),
    ));
    rows.push((
        "micro.daemon.read_fault_64k_ns",
        ns_per_op(each, 1024, || {
            let rig = Rig::untraced(&fs, &cold_cfg);
            let m = &rig.mount;
            in_kernel(&rig, |blk| {
                let fd = m.open(blk, "/cold", GOpenMode::ReadOnly).expect("open");
                let mut buf = vec![0u8; PAGE];
                let took = timed(|| {
                    // Stride 3 pages: never sequential, so every call is
                    // one single-page ReadPages — pread plus DMA.
                    for i in 0..1024u64 {
                        let off = (i * 3 % 1024) * PAGE as u64;
                        black_box(m.read(blk, &fd, off, &mut buf).expect("fault"));
                    }
                });
                m.close(blk, fd).expect("close");
                took
            })
        }),
    ));

    let (fd, _) = fs.open("/cold", OpenFlags::read_only(), 0).expect("open");
    let mut buf = vec![0u8; PAGE];
    rows.push((
        "micro.hostfs.pread_64k_ns",
        ns_per_op(each, 1024, || {
            timed(|| {
                for i in 0..1024u64 {
                    black_box(fs.pread(fd, i * PAGE as u64, &mut buf, 0).expect("pread"));
                }
            })
        }),
    ));
    fs.create("/w", &vec![0u8; 4 << 20]).expect("create");
    let (wfd, _) = fs.open("/w", OpenFlags::read_write(), 0).expect("open");
    rows.push((
        "micro.hostfs.pwrite_64k_ns",
        ns_per_op(each, 1024, || {
            timed(|| {
                for i in 0..1024u64 {
                    black_box(
                        fs.pwrite(wfd, (i % 64) * PAGE as u64, &buf, 0)
                            .expect("pwrite"),
                    );
                }
            })
        }),
    ));
}

fn device_rows(each: Duration, rows: &mut Vec<(&'static str, f64)>) {
    let gpu = Gpu::with_timings(0, c2075(64 << 20), &Timings::paper_platform());
    let dst = gpu.global().alloc(1 << 20).expect("alloc");
    let src = vec![0x5au8; 1 << 20];
    let ns_per_mb = ns_per_op(each, 64, || {
        timed(|| {
            for _ in 0..64 {
                black_box(gpu.dma_h2d(black_box(&src), dst, 0));
            }
        })
    });
    // 10^6 bytes per `ns_per_mb * 1e6 / 2^20` ns, in GB/s.
    rows.push(("micro.gpusim.dma_h2d_gb_s", (1u64 << 20) as f64 / ns_per_mb));
    rows.push((
        "micro.gpusim.launch_28_us",
        ns_per_op(each, 8, || {
            timed(|| {
                for _ in 0..8 {
                    black_box(gpu.launch(Grid::new(28, 256), 0, |blk| {
                        black_box(blk.block_id());
                    }));
                }
            })
        }) / 1e3,
    ));

    const OPS: u64 = 200_000;
    let link = BandwidthResource::new(5731.0, 25_000);
    let reserve = |t: usize| {
        for i in 0..OPS {
            black_box(link.transfer(i * 100 + t as u64, 4096));
        }
    };
    rows.push((
        "micro.simtime.transfer_ns",
        ns_per_op(each, OPS, || timed(|| reserve(0))),
    ));
    rows.push((
        "micro.simtime.transfer_mt_ns",
        ns_per_op(each, OPS, || timed_mt(reserve)),
    ));
}

fn remote_rows(each: Duration, rows: &mut Vec<(&'static str, f64)>) {
    const PAGE: usize = 64 << 10;
    let req = WireRequest::ReadPages {
        fd: 3,
        pages: (0..8).map(|i| (i * PAGE as u64, PAGE as u32)).collect(),
    };
    let resp = WireResponse::Read {
        pages: (0..8u8).map(|i| vec![i; PAGE]).collect(),
    };
    rows.push((
        "micro.remote.proto_readpages_ns",
        ns_per_op(each, 16, || {
            timed(|| {
                for _ in 0..16 {
                    let frame = encode_request(black_box(&req));
                    black_box(decode_request(&frame).expect("round trip"));
                    let frame = encode_response(black_box(&resp));
                    black_box(decode_response(&frame).expect("round trip"));
                }
            })
        }),
    ));

    let cache = HostPageCache::new(1024, 8);
    for p in 0..256u64 {
        cache.insert(9, p * PAGE as u64, 1, vec![p as u8; PAGE]);
    }
    rows.push((
        "micro.remote.hostcache_lookup_ns",
        ns_per_op(each, 2048, || {
            timed(|| {
                for i in 0..2048u64 {
                    black_box(cache.lookup(9, (i * 37 % 256) * PAGE as u64, 1, PAGE));
                }
            })
        }),
    ));

    const ITEMS: usize = 100_000;
    rows.push((
        "micro.cluster.workqueue_next_ns",
        ns_per_op(each, ITEMS as u64, || {
            let q = WorkQueue::contiguous(ITEMS, 4, ShardStrategy::WorkStealing);
            timed(|| {
                // Shard 3 drains its own quarter, then steals the rest.
                while let Some(item) = q.next(3) {
                    black_box(item.index);
                }
            })
        }),
    ));
}

fn obs_rows(each: Duration, rows: &mut Vec<(&'static str, f64)>) {
    const OPS: u64 = 50_000;
    let tracer = obs::Tracer::new();
    tracer.set_enabled(true);
    rows.push((
        "micro.obs.span_ns",
        ns_per_op(each, OPS, || {
            let took = timed(|| {
                for i in 0..OPS {
                    let root = tracer.root("micro_root");
                    obs::span("micro_child").finish(i, i + 1);
                    root.finish(i, i + 2);
                }
            });
            // Drained outside the reading, as a run drains at its end.
            black_box(tracer.snapshot().len());
            took
        }) / 2.0,
    ));

    let counter = obs::Counter::new();
    rows.push((
        "micro.obs.counter_incr_ns",
        ns_per_op(each, 1_000_000, || {
            timed(|| {
                for _ in 0..1_000_000 {
                    black_box(&counter).incr();
                }
            })
        }),
    ));

    // A registry the size of a four-GPU, three-tenant host's.
    let registry = obs::Registry::new();
    for g in 0..4 {
        for t in 0..3 {
            for name in ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"] {
                let _ = registry.counter(name, obs::Labels::gpu(g).with_tenant(t));
            }
        }
    }
    rows.push((
        "micro.obs.registry_snapshot_us",
        ns_per_op(each, 64, || {
            timed(|| {
                for _ in 0..64 {
                    black_box(registry.snapshot());
                }
            })
        }) / 1e3,
    ));
}
