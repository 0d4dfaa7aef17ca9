//! The host cost of a simulated GPU's memory on first touch, counted: a
//! fresh host allocation takes a kernel page fault per 4 KiB page the
//! first time it is written, and a GPU built after a same-sized one was
//! dropped reuses that one's already-touched arena.
//!
//! The only test in its own binary, so no other test's threads fault
//! pages while the counter is read.
#![cfg(target_os = "linux")]

use gpusim::{DevPtr, Gpu, GpuSpec};

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

#[test]
fn a_second_gpu_of_one_capacity_takes_a_tenth_of_the_first_ones_faults() {
    let spec = GpuSpec {
        memory_bytes: 64 << 20,
        ..GpuSpec::small_test()
    };
    let chunk = vec![0x5a; 1 << 20];
    // Build a GPU, write 16 MB of its memory, drop it: the faults it took.
    let round = || {
        let before = minor_faults();
        let gpu = Gpu::new(0, spec.clone());
        for mb in 0..16u64 {
            gpu.global().write(DevPtr(mb << 20), &chunk);
        }
        drop(gpu);
        minor_faults() - before
    };
    let first = round();
    let second = round();
    assert!(
        second * 10 < first,
        "the second GPU took {second} minor faults, the first {first}"
    );
}
