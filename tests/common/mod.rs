//! The Figure-4 smoke point both observer-effect guards run
//! (`trace_equiv` for the span tracer, `lockcheck_equiv` for the lock
//! checker): one threadblock walks a 2 MB file at readahead 8, mixing
//! `gread` and `gmmap` so both entry points run. Each guard stays its
//! own test binary, because `lockcheck_equiv` toggles the process-wide
//! detector.

use std::sync::Arc;

use gpufs::{GOpenMode, GpuFsMount, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};

const PAGE: usize = 16 << 10;
const FILE_BYTES: u64 = 2 << 20; // 128 pages: enough to exercise readahead

/// Everything the run can observe: the virtual finish time (exact, in
/// nanos) and the full registry snapshot — every counter leaf, every
/// aggregate view and every probe, rendered to one string.
#[derive(Debug, PartialEq, Eq)]
pub struct Observation {
    pub end_ns: u64,
    pub registry: String,
    /// Spans the tracer collected (0 when tracing is off).
    pub spans: usize,
}

/// Run the walk once on a fresh host, with span tracing on or off.
pub fn fig4_smoke_point(tracing: bool) -> Observation {
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

    // One threadblock, unlike fig4's 28: with concurrent blocks the
    // readahead/demand races genuinely reorder RPC batching between
    // runs, so bit-identical virtual time is only a meaningful contract
    // on a single-client timeline.
    let res = gpu.launch(Grid::new(1, 256), 0, |blk| {
        let fd = mount.open(blk, "/seq.bin", GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; PAGE];
        let mut off = 0u64;
        let mut sum = 0u64;
        while off < FILE_BYTES {
            let n = if (off / PAGE as u64).is_multiple_of(2) {
                let n = mount.read(blk, &fd, off, &mut buf).unwrap();
                sum += buf[..n].iter().map(|&b| b as u64).sum::<u64>();
                n
            } else {
                let map = mount.mmap(blk, &fd, off, PAGE).unwrap();
                let got = map.len();
                mount.munmap(blk, map);
                got
            };
            assert!(n > 0);
            off += n as u64;
        }
        assert!(sum > 0, "synthetic data is non-zero");
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
