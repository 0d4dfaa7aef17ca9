//! Observer-effect guard for the span tracer: tracing is compiled in
//! everywhere (the `g*` entry points, the pin path, the daemon
//! pipeline, the wire protocol, the dirty-page cap's sweep), so it must
//! be *time-transparent* — a run with tracing enabled must produce the
//! same bit-identical virtual finish time and the same counter sheets
//! as a run with tracing off (the default). The moment an instrumented
//! stage reads the clock differently, charges the link for the trace
//! ctx riding a wire frame, or bumps a counter it shouldn't, this
//! fails.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::fig4_smoke_point;
use gpufs::{GOpenMode, GpuFsMount, GpufsConfig, GpufsHost};
use gpusim::{launch_fleet, Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};
use obs::TraceCtx;

#[test]
fn fig4_smoke_point_is_identical_with_tracing_on_and_off() {
    let on = fig4_smoke_point(true);
    let off = fig4_smoke_point(false);
    // Virtual time bit-identical and every counter sheet equal: the
    // tracer observed the run without altering it.
    assert_eq!(on.end_ns, off.end_ns, "tracing perturbed virtual time");
    assert_eq!(on.registry, off.registry, "tracing perturbed a counter");
    assert!(on.spans > 0 && off.spans == 0);
}

/// A fleet launch runs on block threads kept from launch to launch, so a
/// thread's trace scope must end with the block that opened it: a scope
/// left behind would hang an untraced host's spans on another host's
/// tracer.
#[test]
fn a_kept_block_thread_starts_every_launch_with_no_trace_scope() {
    const FILE: &str = "/shared.bin";
    let fleet = |traced: bool| {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        fs.create(FILE, &[7u8; 64 << 10]).unwrap();
        let gpus: Vec<Arc<Gpu>> = (0..2)
            .map(|g| Arc::new(Gpu::new(g, GpuSpec::small_test())))
            .collect();
        let host = GpufsHost::new(fs, gpus.clone());
        host.set_tracing(traced);
        let mounts: Vec<Arc<GpuFsMount>> = (0..2)
            .map(|g| host.mount(g, GpufsConfig::small_test()).unwrap())
            .collect();
        (host, gpus, mounts)
    };
    let grids = [Grid::new(4, 32); 2];
    let scoped_at_entry = AtomicUsize::new(0);
    let launch = |gpus: &[Arc<Gpu>], mounts: &[Arc<GpuFsMount>]| {
        launch_fleet(gpus, &grids, |g, blk| {
            if obs::current() != TraceCtx::NONE {
                scoped_at_entry.fetch_add(1, Ordering::Relaxed);
            }
            let fd = mounts[g].open(blk, FILE, GOpenMode::ReadOnly)?;
            let mut buf = vec![0u8; 4096];
            mounts[g].read(blk, &fd, blk.block_id() as u64 * 4096, &mut buf)?;
            mounts[g].close(blk, fd)
        })
        .unwrap();
    };

    let (traced, gpus, mounts) = fleet(true);
    launch(&gpus, &mounts);
    assert!(!traced.tracer().snapshot().is_empty(), "the traced launch");

    let (untraced, gpus, mounts) = fleet(false);
    launch(&gpus, &mounts);
    assert_eq!(scoped_at_entry.load(Ordering::Relaxed), 0);
    assert!(
        traced.tracer().snapshot().is_empty(),
        "a span of the untraced launch"
    );
    assert!(untraced.tracer().snapshot().is_empty());
}
