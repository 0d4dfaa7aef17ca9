//! The six workloads. Each is built from the seed (corpus, offsets,
//! verification tables — the *setup* the `setup_s` metric times) and then
//! iterated: an iteration assembles what it needs outside the timed
//! region, times only the kernel launch(es), checks what the program
//! returned, and reads the public counter sheets.

mod dist_search;
mod evict_random;
mod hot_reread;
mod seq_read_cold;
pub mod tenant_mix;
mod write_back;

use hostfs::HostFs;

use crate::record::{IterOut, Observe};
use crate::rig::{fill_local_layers, LocalCounts, Rig};
use crate::stats::Rng;

/// One workload, set up and ready to iterate.
pub trait Workload {
    /// Run one iteration of fixed work under `obs`.
    fn iterate(&mut self, obs: &Observe) -> IterOut;
}

/// Set `name` up from `seed`. `smoke` shrinks the geometry so a full
/// pass over all six finishes in seconds (self-tests only; its numbers
/// mean nothing).
///
/// # Panics
///
/// Panics on a name that is not one of [`crate::spec::WORKLOADS`].
#[must_use]
pub fn build(name: &str, seed: u64, smoke: bool) -> Box<dyn Workload> {
    match name {
        "seq_read_cold" => Box::new(seq_read_cold::SeqReadCold::new(seed, smoke)),
        "hot_reread" => Box::new(hot_reread::HotReread::new(seed, smoke)),
        "write_back" => Box::new(write_back::WriteBack::new(seed, smoke)),
        "evict_random" => Box::new(evict_random::EvictRandom::new(seed, smoke)),
        "tenant_mix" => Box::new(tenant_mix::TenantMix::new(seed, smoke)),
        "dist_search" => Box::new(dist_search::DistSearch::new(seed, smoke)),
        other => panic!("no workload named {other:?}"),
    }
}

/// Close out a single-GPU iteration: read the layer sheets of `rig`
/// (the iteration's `virt_ns` and `bytes` must already be set) and, in a
/// traced run, drain the program's virtual-time spans.
fn finish_rig(out: &mut IterOut, rig: &Rig, fs: &HostFs, obs: &Observe) {
    let counts = LocalCounts::read(&[&rig.mount], &[&rig.host]);
    fill_local_layers(&mut out.sheet, &counts, 1, fs, out.virt_ns, out.bytes);
    if obs.traced {
        out.virt_spans = rig.host.tracer().snapshot();
    }
}

/// Append the spans one host's tracer collected to `all`. Every tracer
/// mints ids from 1, so the `nth` set is moved clear of the others and
/// parents keep resolving within their own set.
fn append_spans(all: &mut Vec<obs::SpanRecord>, spans: Vec<obs::SpanRecord>, nth: usize) {
    let shift = (nth as u64) << 40;
    all.extend(spans.into_iter().map(|mut s| {
        s.trace += shift;
        s.span += shift;
        if s.parent != 0 {
            s.parent += shift;
        }
        s
    }));
}

/// Split `total` bytes into call sizes drawn uniformly from
/// `[nominal / 2, nominal * 3 / 2)` in 8-byte steps (the last call takes
/// what is left). Record size is a traffic dimension like any other, and
/// a fixed one would make every cache hit cost the same whole number of
/// virtual nanoseconds — a percentile that reads identically on every
/// run and seed, which says nothing and which the acceptance driver
/// rejects as not measured.
#[must_use]
pub fn call_sizes(rng: &mut Rng, nominal: usize, total: u64) -> Vec<u32> {
    let mut out = Vec::with_capacity((total / nominal as u64) as usize + 2);
    let mut left = total;
    while left > 0 {
        let n = (nominal / 2) as u64 + rng.below(nominal as u64) / 8 * 8;
        let n = n.min(left);
        out.push(n as u32);
        left -= n;
    }
    out
}

/// Wrapping sum of the little-endian 64-bit words of `buf` (a short tail
/// is summed bytewise). Cheap enough to run inside the timed region on
/// every byte a g* call returns; the tables it is compared against are
/// built at setup from `HostFs::read_whole`, not through GPUfs.
#[must_use]
pub fn checksum(buf: &[u8]) -> u64 {
    let mut words = buf.chunks_exact(8);
    let mut sum = 0u64;
    for w in &mut words {
        sum = sum.wrapping_add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        sum = sum.wrapping_add(u64::from(b));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_sizes_cover_the_total_around_the_nominal() {
        let sizes = call_sizes(&mut Rng::new(3, 0), 4096, 1 << 20);
        assert_eq!(sizes.iter().map(|&n| u64::from(n)).sum::<u64>(), 1 << 20);
        let body = &sizes[..sizes.len() - 1];
        assert!(body
            .iter()
            .all(|&n| (2048..6144).contains(&n) && n % 8 == 0));
        let mean = body.iter().map(|&n| f64::from(n)).sum::<f64>() / body.len() as f64;
        assert!((mean - 4096.0).abs() < 200.0, "mean call size {mean}");
        assert_ne!(sizes, call_sizes(&mut Rng::new(4, 0), 4096, 1 << 20));
    }
}
