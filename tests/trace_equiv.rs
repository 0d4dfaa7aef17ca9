//! Observer-effect guard for the span tracer: tracing is compiled in
//! everywhere (the `g*` entry points, the pin path, the daemon
//! pipeline, the wire protocol, the dirty-page cap's sweep), so it must
//! be *time-transparent* — a run with tracing enabled must produce the
//! same bit-identical virtual finish time and the same counter sheets
//! as a run with tracing off (the default). The moment an instrumented
//! stage reads the clock differently, charges the link for the trace
//! ctx riding a wire frame, or bumps a counter it shouldn't, this
//! fails.

use std::sync::Arc;

use gpufs::{GOpenMode, GpuFsMount, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};

const PAGE: usize = 16 << 10;
const FILE_BYTES: u64 = 2 << 20; // 128 pages: enough to exercise readahead

/// Everything the run can observe: the virtual finish time (exact, in
/// nanos) and the full registry snapshot — every counter leaf, every
/// aggregate view, every latency histogram, rendered to one string.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    end_ns: u64,
    registry: String,
    /// Spans the tracer collected (0 when tracing is off).
    spans: usize,
}

fn fig4_smoke_point(tracing: bool) -> Observation {
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
    let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
    let cache = (FILE_BYTES as usize + 16 * PAGE).next_power_of_two();
    let cfg = GpufsConfig::new(PAGE, cache).with_readahead(8);
    let mount: Arc<GpuFsMount> = host.mount(0, cfg).unwrap();
    host.set_tracing(tracing);

    fs.create_synthetic("/seq.bin", FILE_BYTES, 4).unwrap();
    let _ = fs.read_whole("/seq.bin", 0).unwrap(); // warm, as fig4 does
    fs.reset_device_time();

    // One threadblock, as in lockcheck_equiv: concurrent blocks
    // genuinely reorder RPC batching between runs, so bit-identical
    // virtual time is only a meaningful contract on a single-client
    // timeline. The walk mixes gread and gmmap so both entry points'
    // roots are exercised.
    let res = gpu.launch(Grid::new(1, 256), 0, |blk| {
        let fd = mount.open(blk, "/seq.bin", GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; PAGE];
        let mut off = 0u64;
        while off < FILE_BYTES {
            let n = if (off / PAGE as u64).is_multiple_of(2) {
                mount.read(blk, &fd, off, &mut buf).unwrap()
            } else {
                let map = mount.mmap(blk, &fd, off, PAGE).unwrap();
                let got = map.len();
                mount.munmap(blk, map);
                got
            };
            assert!(n > 0);
            off += n as u64;
        }
        mount.close(blk, fd).unwrap();
    });

    let spans = host.tracer().snapshot();
    if tracing {
        assert!(!spans.is_empty(), "tracing on must collect spans");
        // Well-formed enough to render: every span ends at or after its
        // start, and the causal tree has roots.
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans.iter().any(|s| s.parent == 0));
    } else {
        assert!(spans.is_empty(), "tracing off must collect nothing");
    }
    Observation {
        end_ns: res.end,
        registry: format!("{:?}", host.registry().snapshot()),
        spans: spans.len(),
    }
}

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
