//! Kernel launch and the non-preemptive threadblock scheduler.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use simtime::{Clock, Nanos};

use crate::{Gpu, GpuId};

/// Launch geometry: how many threadblocks, how many threads per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Number of threadblocks in the kernel.
    pub blocks: usize,
    /// Threads per threadblock (the paper uses 256–512).
    pub threads_per_block: usize,
}

impl Grid {
    /// A grid of `blocks` threadblocks with `threads_per_block` threads each.
    #[must_use]
    pub fn new(blocks: usize, threads_per_block: usize) -> Self {
        Self {
            blocks,
            threads_per_block,
        }
    }
}

/// Result of a completed kernel: virtual start/end plus per-block end times.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Virtual time at which the kernel was launched.
    pub start: Nanos,
    /// Virtual completion time: the latest block-end over all MP slots.
    pub end: Nanos,
    /// Per-threadblock completion times, indexed by block id.
    pub block_ends: Vec<Nanos>,
}

impl KernelResult {
    /// Elapsed virtual time of the kernel.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.end - self.start
    }
}

/// One warp of a threadblock: `warp_size` consecutive thread lanes.
///
/// GPUfs's API is defined at warp (or, in the prototype and here, at
/// threadblock) granularity; workloads use warps to structure per-lane work
/// and to charge divergence-aware compute time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpCtx {
    /// Index of this warp within its block.
    pub warp_id: usize,
    /// First thread lane of the warp.
    pub first_lane: usize,
    /// Number of lanes (equal to the warp size except for a ragged tail).
    pub lanes: usize,
}

/// Execution context handed to a kernel closure, one per threadblock.
///
/// The context owns the block's virtual [`Clock`] and its scratchpad
/// buffer. Application "threads" inside a block run sequentially via
/// [`BlockCtx::threads`]; the real concurrency in the simulator is between
/// blocks.
pub struct BlockCtx<'g> {
    gpu: &'g Gpu,
    grid: Grid,
    block_id: usize,
    clock: Clock,
    scratch: Vec<u8>,
}

impl std::fmt::Debug for BlockCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCtx")
            .field("gpu", &self.gpu.id())
            .field("block_id", &self.block_id)
            .field("now", &self.clock.now())
            .finish()
    }
}

impl<'g> BlockCtx<'g> {
    /// The GPU this block runs on.
    #[must_use]
    pub fn gpu(&self) -> &'g Gpu {
        self.gpu
    }

    /// Identifier of the GPU this block runs on.
    #[must_use]
    pub fn gpu_id(&self) -> GpuId {
        self.gpu.id()
    }

    /// The launch geometry.
    #[must_use]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// This block's id in `[0, grid.blocks)`.
    #[must_use]
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Iterate the block's thread ids. Per-thread work runs sequentially;
    /// charge its cost once for the whole block via [`BlockCtx::advance`]
    /// using a per-thread-parallel cost model.
    pub fn threads(&self) -> std::ops::Range<usize> {
        0..self.grid.threads_per_block
    }

    /// Iterate the block's warps.
    #[cfg(test)]
    pub fn warps(&self) -> impl Iterator<Item = WarpCtx> + '_ {
        let ws = self.gpu.spec().warp_size;
        let n = self.grid.threads_per_block;
        (0..n.div_ceil(ws)).map(move |warp_id| WarpCtx {
            warp_id,
            first_lane: warp_id * ws,
            lanes: ws.min(n - warp_id * ws),
        })
    }

    /// Block-wide barrier (`__syncthreads`). Since intra-block threads run
    /// sequentially here, this only charges the barrier's hardware cost.
    #[cfg(test)]
    pub fn sync_threads(&mut self) {
        self.clock.advance(20);
    }

    /// System-scope memory fence (`__threadfence_system`): makes this
    /// block's global-memory writes visible to the host DMA engine. GPUfs
    /// issues one after every `gwrite` (paper §4.1).
    pub fn threadfence_system(&mut self) {
        self.clock.advance(250);
    }

    /// Current virtual time of this block.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Charge `dur` nanoseconds of block-local work.
    pub fn advance(&mut self, dur: Nanos) {
        self.clock.advance(dur);
    }

    /// Wait (virtually) until `t`.
    pub fn wait_until(&mut self, t: Nanos) {
        self.clock.wait_until(t);
    }

    /// The block's scratchpad ("shared") memory.
    pub fn scratch(&mut self) -> &mut [u8] {
        &mut self.scratch
    }
}

impl Gpu {
    /// Launch a kernel: run `kernel` once per threadblock of `grid`,
    /// starting at virtual time `start`.
    ///
    /// Threadblocks are dispatched in a randomly shuffled order onto
    /// `spec.concurrent_blocks()` MP slots, each backed by a real OS
    /// thread. A slot runs its blocks back-to-back without preemption; the
    /// kernel completes when the slowest slot drains.
    ///
    /// # Panics
    ///
    /// Panics if a block panics (the paper notes a GPU software failure
    /// kills the whole GPU context; we surface it as a test failure).
    pub fn launch<F>(&self, grid: Grid, start: Nanos, kernel: F) -> KernelResult
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        let seed = rand::random::<u64>();
        self.launch_seeded(grid, start, seed, kernel)
    }

    /// [`Gpu::launch`] with a fixed dispatch-order seed, for reproducible
    /// tests of order-sensitive behaviour (e.g. the closed-file table
    /// reviving caches when blocks close and reopen a file).
    pub fn launch_seeded<F>(&self, grid: Grid, start: Nanos, seed: u64, kernel: F) -> KernelResult
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        assert!(grid.blocks > 0, "kernel must have at least one threadblock");
        assert!(
            grid.threads_per_block > 0,
            "threadblocks must have at least one thread"
        );

        // The hardware scheduler dispatches blocks in nondeterministic
        // order (paper §2); model it as a seeded shuffle.
        let mut order: Vec<usize> = (0..grid.blocks).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);

        let launch_overhead = self.timings().kernel_launch_ns;
        let t0 = start + launch_overhead;
        let slots = self.spec().concurrent_blocks().min(grid.blocks).max(1);
        let mut block_ends = vec![0u64; grid.blocks];

        // Blocks are assigned to MP slots round-robin over the shuffled
        // dispatch order. The hardware scheduler would instead hand the
        // next block to whichever slot drains first; round-robin matches
        // it exactly for uniform blocks and approximates it otherwise,
        // while keeping slot-local virtual time independent of host OS
        // scheduling (a work-stealing pull would let one host thread
        // grab many blocks per timeslice and skew per-slot clocks).
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..slots)
                .map(|slot| {
                    let order = &order;
                    let kernel = &kernel;
                    s.spawn(move || {
                        let mut ends = Vec::new();
                        let mut slot_clock = Clock::starting_at(t0);
                        let mut i = slot;
                        while i < order.len() {
                            let block_id = order[i];
                            i += slots;
                            let mut ctx = BlockCtx {
                                gpu: self,
                                grid,
                                block_id,
                                clock: slot_clock.clone(),
                                scratch: vec![0u8; self.spec().scratchpad_bytes],
                            };
                            kernel(&mut ctx);
                            slot_clock = ctx.clock;
                            ends.push((block_id, slot_clock.now()));
                        }
                        ends
                    })
                })
                .collect();
            for h in handles {
                for (block_id, end) in h.join().expect("threadblock panicked") {
                    block_ends[block_id] = end;
                }
            }
        });

        let end = block_ends.iter().copied().max().unwrap_or(t0);
        KernelResult {
            start,
            end,
            block_ends,
        }
    }

    /// Timing calibration this GPU was built with.
    #[must_use]
    pub fn timings(&self) -> &simtime::Timings {
        self.dma().timings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn gpu() -> Gpu {
        Gpu::new(0, GpuSpec::small_test())
    }

    #[test]
    fn every_block_runs_exactly_once() {
        let gpu = gpu();
        let hits = AtomicU64::new(0);
        let per_block: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        gpu.launch(Grid::new(100, 32), 0, |blk| {
            hits.fetch_add(1, Ordering::Relaxed);
            per_block[blk.block_id()].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert!(per_block.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn kernel_end_is_max_block_end() {
        let gpu = gpu();
        let res = gpu.launch(Grid::new(16, 32), 1000, |blk| {
            blk.advance(1_000 * (blk.block_id() as u64 + 1));
        });
        assert_eq!(res.start, 1000);
        assert_eq!(res.block_ends.len(), 16);
        assert_eq!(res.end, *res.block_ends.iter().max().unwrap());
        assert!(res.elapsed() >= 1_000);
    }

    #[test]
    fn dispatch_order_is_shuffled_but_seeded() {
        let gpu = gpu();
        let record = |seed: u64| {
            let order = parking_lot::Mutex::new(Vec::new());
            // One slot => strictly sequential, records dispatch order.
            let single = Gpu::new(
                0,
                GpuSpec {
                    num_mps: 1,
                    resident_blocks_per_mp: 1,
                    ..GpuSpec::small_test()
                },
            );
            single.launch_seeded(Grid::new(32, 32), 0, seed, |blk| {
                order.lock().push(blk.block_id());
            });
            let _ = &gpu;
            order.into_inner()
        };
        let a = record(42);
        let b = record(42);
        let c = record(7);
        assert_eq!(a, b, "same seed must give the same dispatch order");
        assert_ne!(a, c, "different seeds should shuffle differently");
        assert_ne!(
            a,
            (0..32).collect::<Vec<_>>(),
            "order should not be sequential"
        );
    }

    #[test]
    fn blocks_start_after_launch_overhead() {
        let gpu = gpu();
        let res = gpu.launch(Grid::new(1, 32), 500, |blk| {
            assert!(blk.now() >= 500 + blk.gpu().timings().kernel_launch_ns);
        });
        assert!(res.end >= 500);
    }

    #[test]
    fn warps_cover_all_threads() {
        let gpu = gpu();
        gpu.launch(Grid::new(1, 100), 0, |blk| {
            let warps: Vec<_> = blk.warps().collect();
            assert_eq!(warps.len(), 4); // ceil(100/32)
            let total: usize = warps.iter().map(|w| w.lanes).sum();
            assert_eq!(total, 100);
            assert_eq!(warps[3].lanes, 4);
            assert_eq!(warps[2].first_lane, 64);
        });
    }

    #[test]
    fn scratchpad_is_private_per_block() {
        let gpu = gpu();
        gpu.launch(Grid::new(8, 32), 0, |blk| {
            let id = blk.block_id() as u8;
            blk.scratch()[0] = id;
            blk.sync_threads();
            assert_eq!(blk.scratch()[0], id);
        });
    }

    #[test]
    fn threads_iterate_sequentially() {
        let gpu = gpu();
        gpu.launch(Grid::new(1, 64), 0, |blk| {
            let sum: usize = blk.threads().sum();
            assert_eq!(sum, 64 * 63 / 2);
        });
    }

    #[test]
    #[should_panic(expected = "at least one threadblock")]
    fn empty_grid_panics() {
        gpu().launch(Grid::new(0, 32), 0, |_| {});
    }
}
