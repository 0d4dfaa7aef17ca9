//! The host cost of the write path, counted: before host file bodies were
//! pooled blocks, a file growing under `pwrite` reallocated one vector,
//! every `fsync` cloned it, and every read-write page's diff snapshot was
//! a fresh allocation, so each round of writes faulted in its memory
//! anew. Now a round run after an identical one reuses what that one
//! touched.
//!
//! Each round builds a fresh host file system, GPU and mount, and runs a
//! miniature of the benchmark's `write_back`: blocks write disjoint
//! slices of a write-once file and `gfsync` it, then overwrite the middle
//! quarter of every page of a read-write file and `gfsync` that. Minor
//! faults of the three rounds with 32 MB files (debug build, two-core
//! Xeon): with one vector per body and a fresh snapshot per page, 61 847
//! / 27 782 / 29 025; with pooled blocks and snapshot buffers, 59 852 /
//! 63 / 139 (the first round also faults in the GPU arena). The
//! read-write file comes from `HostFs::create`, so its cached and
//! durable copies share their blocks and each rewritten block is copied
//! on write from the free list first: three runs read 52 980 / 1 331 /
//! 110, 53 890 / 76 / 641 and 54 407 / 70 / 36, against 59 956–60 183 /
//! 50–71 / 62–146 with a private block list per copy (the first round
//! now faults in one copy of that file, not two).
//!
//! The only test in its own binary, so no other test's threads fault
//! pages while the counter is read.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig, OpenFlags};

const FILE_BYTES: usize = 32 << 20;
const PAGE: usize = 64 << 10;
const CALL_BYTES: usize = 16 << 10;
const BLOCKS: usize = 8;
const ONCE: &str = "/once.bin";
const RMW: &str = "/rmw.bin";

/// Minor faults of this process so far: field 10 of `/proc/self/stat`.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 is the command name in parentheses and may hold spaces;
    // field 3 starts after the last ')'.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    after_comm
        .split_whitespace()
        .nth(10 - 3)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

/// Where the read-modify-write of page `page` lands: its middle quarter.
fn rmw_range(page: usize) -> std::ops::Range<usize> {
    let at = page * PAGE + PAGE * 3 / 8;
    at..at + PAGE / 4
}

/// The two files' inputs and images, built once so that no round
/// allocates them.
struct Inputs {
    payload: Vec<u8>,
    base: Vec<u8>,
    /// `base` after every page's middle quarter took `payload`'s bytes.
    rmw_image: Vec<u8>,
}

/// One round on fresh machinery; returns its minor faults. `check` is a
/// file-sized buffer the caller has already touched, for reading the
/// host's copies back.
fn round(inputs: &Inputs, check: &mut [u8]) -> u64 {
    let Inputs {
        payload,
        base,
        rmw_image,
    } = inputs;
    let before = minor_faults();
    // Read-write pages keep a pristine copy beside the working one.
    let cfg = GpufsConfig::new(PAGE, 4 * FILE_BYTES);
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    fs.create(RMW, base).unwrap();
    let gpu = Arc::new(Gpu::new(
        0,
        GpuSpec {
            memory_bytes: cfg.cache_bytes + (64 << 20),
            ..GpuSpec::small_test()
        },
    ));
    let host = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], &cfg);
    let mount = host.mount(0, cfg.clone()).unwrap();
    let slice = FILE_BYTES / BLOCKS;
    gpu.launch(Grid::new(BLOCKS, 32), 0, |blk| {
        let lo = blk.block_id() * slice;
        let fd = mount.open(blk, ONCE, GOpenMode::WriteOnce).unwrap();
        for at in (lo..lo + slice).step_by(CALL_BYTES) {
            let src = &payload[at..at + CALL_BYTES];
            mount.write(blk, &fd, at as u64, src).unwrap();
        }
        mount.fsync(blk, &fd).unwrap();
        mount.close(blk, fd).unwrap();

        let fd = mount.open(blk, RMW, GOpenMode::ReadWrite).unwrap();
        for page in lo / PAGE..(lo + slice) / PAGE {
            let r = rmw_range(page);
            mount.write(blk, &fd, r.start as u64, &payload[r]).unwrap();
        }
        mount.fsync(blk, &fd).unwrap();
        mount.close(blk, fd).unwrap();
    });
    for (path, want) in [(ONCE, payload), (RMW, rmw_image)] {
        let (fd, _) = fs.open(path, OpenFlags::read_only(), 0).unwrap();
        assert_eq!(fs.pread(fd, 0, check, 0).unwrap().0, FILE_BYTES);
        assert!(check == want, "{path} on the host differs");
        fs.close(fd).unwrap();
    }
    drop(mount);
    drop(host);
    drop(gpu);
    drop(fs);
    minor_faults() - before
}

#[test]
fn a_third_write_round_takes_a_fifth_of_the_first_ones_faults() {
    let bytes = |salt: u64| -> Vec<u8> {
        (0..FILE_BYTES as u64)
            .map(|i| ((i ^ salt << 40).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 | 1)
            .collect()
    };
    let (payload, base) = (bytes(1), bytes(2));
    let mut rmw_image = base.clone();
    for page in 0..FILE_BYTES / PAGE {
        let r = rmw_range(page);
        rmw_image[r.clone()].copy_from_slice(&payload[r]);
    }
    let inputs = Inputs {
        payload,
        base,
        rmw_image,
    };
    let mut check = vec![0u8; FILE_BYTES];
    let faults: Vec<u64> = (0..3).map(|_| round(&inputs, &mut check)).collect();
    assert!(
        faults[2] * 5 < faults[0],
        "minor faults per round: {faults:?}"
    );
}
