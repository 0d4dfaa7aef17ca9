//! The host memory of a host file, measured: a file's cached and durable
//! copies share their 4 KiB blocks, so a file `HostFs::create` makes is
//! held once until it is written, a write copies only the block it
//! touches, and `fsync` and a crash's roll-back move block pointers.
//!
//! Resident set growth of creating one 32 MiB file (debug build, two-core
//! Xeon): with a private block list per copy, 64.3 MiB; with shared
//! blocks, 32.3 MiB (each block's reference count and allocator header
//! ride along).
//!
//! The only test in its own binary, so no other test's threads allocate
//! while the resident set is read.
#![cfg(target_os = "linux")]

use hostfs::{HostFs, HostFsConfig, OpenFlags};

const FILE_BYTES: usize = 32 << 20;
const BLOCK: usize = 4 << 10;
const PATH: &str = "/input.bin";

/// Resident set of this process in bytes: `VmRSS` of `/proc/self/status`.
fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("VmRSS value");
    kib << 10
}

/// The whole of `path` as the host reads it.
fn contents(fs: &HostFs, path: &str) -> Vec<u8> {
    let (fd, _) = fs.open(path, OpenFlags::read_only(), 0).unwrap();
    let mut out = vec![0u8; FILE_BYTES];
    assert_eq!(fs.pread(fd, 0, &mut out, 0).unwrap().0, FILE_BYTES);
    fs.close(fd).unwrap();
    out
}

#[test]
fn a_created_file_is_held_once_and_a_write_copies_one_block() {
    let mut image: Vec<u8> = (0..FILE_BYTES as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 | 1)
        .collect();
    let fs = HostFs::new(HostFsConfig::default());

    let before = resident_bytes();
    fs.create(PATH, &image).unwrap();
    let grown = resident_bytes() - before;
    assert!(
        grown * 4 < FILE_BYTES * 5,
        "creating {FILE_BYTES} bytes grew the resident set by {grown}"
    );
    assert_eq!(fs.unshared_blocks(PATH).unwrap(), 0);

    // One block-aligned 4 KiB write gets its own block; fsync makes the
    // durable copy share it.
    let (fd, _) = fs.open(PATH, OpenFlags::read_write(), 0).unwrap();
    let at = 1000 * BLOCK;
    let written = vec![0xabu8; BLOCK];
    fs.pwrite(fd, at as u64, &written, 0).unwrap();
    assert_eq!(fs.unshared_blocks(PATH).unwrap(), 1);
    fs.fsync(fd, 0).unwrap();
    assert_eq!(fs.unshared_blocks(PATH).unwrap(), 0);
    image[at..at + BLOCK].copy_from_slice(&written);

    // A write after the fsync is lost in a crash; the fsynced one is not.
    fs.pwrite(fd, (at + 10) as u64, &[0xcd; 100], 0).unwrap();
    assert_eq!(fs.unshared_blocks(PATH).unwrap(), 1);
    fs.crash();
    assert_eq!(fs.unshared_blocks(PATH).unwrap(), 0);
    assert!(contents(&fs, PATH) == image, "the crash kept other bytes");
}
