//! Kernel launch and the non-preemptive threadblock scheduler, and the
//! one fleet launch: a kernel per GPU, paced on one shared clock board.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use simtime::{Clock, ClockBoard, Nanos};

use crate::pool::{Job, Pool, BLOCK_THREADS};
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

/// A launch laid out on its GPU's MP slots: the blocks in dispatch order,
/// how many slots run them, and when each slot's first block starts.
struct Plan {
    grid: Grid,
    order: Vec<usize>,
    slots: usize,
    t0: Nanos,
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
        let plan = self.plan(grid, start, seed);
        let mut block_ends = vec![0u64; grid.blocks];
        // One OS thread per MP slot, spawned for this launch: an unseated
        // launch's schedule still depends on when its threads start
        // (ROADMAP item 8), so only a seated launch runs on the kept
        // threads of `launch_fleet`.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..plan.slots)
                .map(|slot| {
                    let (plan, kernel) = (&plan, &kernel);
                    s.spawn(move || self.run_slot(plan, slot, kernel))
                })
                .collect();
            for h in handles {
                for (block_id, end) in h.join().expect("threadblock panicked") {
                    block_ends[block_id] = end;
                }
            }
        });

        let end = block_ends.iter().copied().max().unwrap_or(plan.t0);
        KernelResult {
            start,
            end,
            block_ends,
        }
    }

    /// Lay `grid` out on this GPU's MP slots, as a launch at `start` with
    /// dispatch seed `seed` runs it.
    fn plan(&self, grid: Grid, start: Nanos, seed: u64) -> Plan {
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
        Plan {
            grid,
            order,
            slots: self.spec().concurrent_blocks().min(grid.blocks).max(1),
            t0: start + self.timings().kernel_launch_ns,
        }
    }

    /// Run MP slot `slot` of `plan`: its blocks back to back, without
    /// preemption, each with a fresh scratchpad and starting where the
    /// one before it ended. Returns each block's id and end.
    ///
    /// Blocks are assigned to MP slots round-robin over the shuffled
    /// dispatch order. The hardware scheduler would instead hand the
    /// next block to whichever slot drains first; round-robin matches it
    /// exactly for uniform blocks and approximates it otherwise, while
    /// keeping slot-local virtual time independent of host OS scheduling
    /// (a work-stealing pull would let one host thread grab many blocks
    /// per timeslice and skew per-slot clocks).
    fn run_slot<F>(&self, plan: &Plan, slot: usize, kernel: &F) -> Vec<(usize, Nanos)>
    where
        F: Fn(&mut BlockCtx<'_>),
    {
        let mut ends = Vec::new();
        let mut slot_clock = Clock::starting_at(plan.t0);
        for &block_id in plan.order.iter().skip(slot).step_by(plan.slots) {
            let mut ctx = BlockCtx {
                gpu: self,
                grid: plan.grid,
                block_id,
                clock: slot_clock,
                scratch: vec![0u8; self.spec().scratchpad_bytes],
            };
            kernel(&mut ctx);
            slot_clock = ctx.clock;
            ends.push((block_id, slot_clock.now()));
        }
        ends
    }

    /// [`Gpu::launch`] for a kernel that can fail: every block runs to its
    /// end or its error, and the launch returns the first error any block
    /// returned.
    ///
    /// # Errors
    ///
    /// The first error a block returned.
    ///
    /// # Panics
    ///
    /// As [`Gpu::launch`].
    pub fn try_launch<E, F>(&self, grid: Grid, start: Nanos, kernel: F) -> Result<KernelResult, E>
    where
        E: Send,
        F: Fn(&mut BlockCtx<'_>) -> Result<(), E> + Sync,
    {
        let first = Mutex::new(None);
        let res = self.launch(grid, start, |blk| {
            if let Err(e) = kernel(blk) {
                first.lock().get_or_insert(e);
            }
        });
        first.into_inner().map_or(Ok(res), Err)
    }

    /// Timing calibration this GPU was built with.
    #[must_use]
    pub fn timings(&self) -> &simtime::Timings {
        self.dma().timings()
    }
}

/// A block's seat on its fleet's clock board, handed to every block of a
/// [`launch_fleet`] kernel.
#[derive(Debug, Clone, Copy)]
pub struct Pace<'b> {
    board: &'b ClockBoard,
    seat: usize,
}

impl Pace<'_> {
    /// Publish `blk`'s clock and wait until no live block of the fleet is
    /// more than `lag` virtual ns behind it (`lag = 0`: the virtually
    /// least-advanced block goes first).
    pub fn wait(&self, blk: &BlockCtx<'_>, lag: Nanos) {
        self.board.pace(self.seat, blk.now(), lag);
    }
}

/// Launch one kernel per GPU of a fleet, all at virtual time 0, on one
/// shared virtual clock, and return each GPU's end time: the latest end
/// of its blocks.
///
/// `grids[g]` is GPU `g`'s grid; a grid of 0 blocks launches nothing there
/// and reports end 0. Each launching GPU draws its own dispatch seed and
/// lays its blocks out on its MP slots as [`Gpu::launch`] does. Every MP
/// slot of the fleet then runs at once, each on a thread of its own that
/// is kept from launch to launch, and the launch returns when all have
/// finished. The kernel runs once per block with the GPU's index, the
/// block's context and its [`Pace`].
///
/// Why the pace: blocks are real threads whose real speed has nothing to
/// do with the virtual cost they accrue, and the kernels start one GPU
/// after another, so anything they claim or queue for un-paced goes to
/// whoever the OS schedules first — a schedule of no virtual timeline.
/// Every block of the fleet holds one seat of one [`ClockBoard`], seat
/// Σ(blocks of lower GPUs) + block id; [`Pace::wait`] orders the fleet's
/// steps by virtual time. A seat parks however its block exits, so a
/// finished or failed block never holds the line.
///
/// # Errors
///
/// The first error a block returned, in GPU order; every block still
/// runs to its end or its own error.
///
/// # Panics
///
/// Panics before any block runs if `grids` and `gpus` differ in length or
/// a grid has more blocks than its GPU has MP slots: a block not yet
/// dispatched keeps its seat at clock 0, so every block that paces past
/// the lag would wait for it forever. If a block panics, every other
/// block still runs to its end, and then the launch panics with the
/// first panicking block's own payload, in GPU order.
pub fn launch_fleet<G, E, F>(gpus: &[G], grids: &[Grid], kernel: F) -> Result<Vec<Nanos>, E>
where
    G: Borrow<Gpu> + Sync,
    E: Send,
    F: Fn(usize, &mut BlockCtx<'_>, Pace<'_>) -> Result<(), E> + Sync,
{
    launch_fleet_on(&BLOCK_THREADS, gpus, grids, kernel)
}

/// [`launch_fleet`] on the kept threads of `pool`.
fn launch_fleet_on<G, E, F>(
    pool: &'static Pool,
    gpus: &[G],
    grids: &[Grid],
    kernel: F,
) -> Result<Vec<Nanos>, E>
where
    G: Borrow<Gpu> + Sync,
    E: Send,
    F: Fn(usize, &mut BlockCtx<'_>, Pace<'_>) -> Result<(), E> + Sync,
{
    assert_eq!(gpus.len(), grids.len(), "one grid per GPU");
    let mut seats = 0;
    let mut bases = Vec::with_capacity(grids.len());
    for (g, (gpu, grid)) in gpus.iter().zip(grids).enumerate() {
        let slots = gpu.borrow().spec().concurrent_blocks();
        assert!(
            grid.blocks <= slots,
            "GPU {g}: a grid of {} blocks over-subscribes its {slots} MP slots",
            grid.blocks
        );
        bases.push(seats);
        seats += grid.blocks;
    }
    let board = ClockBoard::new(seats);
    let plans: Vec<Option<Plan>> = gpus
        .iter()
        .zip(grids)
        .map(|(gpu, &grid)| (grid.blocks > 0).then(|| gpu.borrow().plan(grid, 0, rand::random())))
        .collect();
    let ends: Vec<AtomicU64> = gpus.iter().map(|_| AtomicU64::new(0)).collect();
    let failures: Vec<Mutex<Option<E>>> = gpus.iter().map(|_| Mutex::new(None)).collect();
    let (board, kernel) = (&board, &kernel);
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(seats);
    for (g, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        let (gpu, end, failed) = (gpus[g].borrow(), &ends[g], &failures[g]);
        for slot in 0..plan.slots {
            // A slot runs one block (no grid over-subscribes, above), and
            // its job holds that block's seat from here: a job dropped
            // unrun leaves the board.
            let seat = bases[g] + plan.order[slot];
            let held = board.seat(seat);
            jobs.push(Box::new(move || {
                let _held = held;
                let slot_ends = gpu.run_slot(plan, slot, &|blk: &mut BlockCtx<'_>| {
                    if let Err(e) = kernel(g, blk, Pace { board, seat }) {
                        failed.lock().get_or_insert(e);
                    }
                });
                for (_, block_end) in slot_ends {
                    end.fetch_max(block_end, Ordering::Relaxed);
                }
            }));
        }
    }
    pool.run(jobs);
    failures
        .into_iter()
        .zip(ends)
        .map(|(failed, end)| failed.into_inner().map_or(Ok(end.into_inner()), Err))
        .collect()
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
    fn scratchpad_is_private_per_block() {
        let gpu = gpu();
        gpu.launch(Grid::new(8, 32), 0, |blk| {
            let id = blk.block_id() as u8;
            blk.scratch()[0] = id;
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

    #[test]
    fn try_launch_runs_every_block_and_keeps_a_blocks_error() {
        let ran = AtomicU64::new(0);
        let res = gpu().try_launch(Grid::new(8, 32), 0, |blk| {
            ran.fetch_add(1, Ordering::Relaxed);
            match blk.block_id() {
                3 => Err(3),
                _ => Ok(()),
            }
        });
        assert_eq!(res.unwrap_err(), 3);
        assert_eq!(
            ran.load(Ordering::Relaxed),
            8,
            "a failed block stops no other"
        );
        assert!(gpu()
            .try_launch(Grid::new(2, 32), 0, |_| Ok::<(), ()>(()))
            .is_ok());
    }

    #[test]
    fn a_fleet_launch_seats_every_block_and_skips_empty_grids() {
        let gpus: Vec<Gpu> = (0..3)
            .map(|id| Gpu::new(id, GpuSpec::small_test()))
            .collect();
        let t0 = gpus[0].timings().kernel_launch_ns;
        let per_gpu: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        let grids = [Grid::new(3, 32), Grid::new(0, 32), Grid::new(8, 32)];
        let ends = launch_fleet(&gpus, &grids, |g, blk, pace| {
            assert_eq!(blk.gpu_id(), g);
            per_gpu[g].fetch_add(1, Ordering::Relaxed);
            // Eleven seats, paced across both launching GPUs.
            for _ in 0..4 {
                pace.wait(blk, 0);
                blk.advance(250 * (g as u64 + 1));
            }
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(ends, [t0 + 1_000, 0, t0 + 3_000]);
        let ran: Vec<u64> = per_gpu.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(ran, [3, 0, 8]);

        let failed = launch_fleet(&gpus[..2], &grids[..2], |g, blk, _| {
            if blk.block_id() == 1 {
                Err(g)
            } else {
                Ok(())
            }
        });
        assert_eq!(failed, Err(0));
    }

    #[test]
    fn a_blocks_panic_reaches_the_caller_after_every_other_block_ran() {
        let gpus = [gpu(), Gpu::new(1, GpuSpec::small_test())];
        let grids = [Grid::new(8, 32); 2];
        let finished = AtomicU64::new(0);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launch_fleet(&gpus, &grids, |g, blk, pace| {
                for _ in 0..3 {
                    pace.wait(blk, 0);
                    blk.advance(100);
                    if (g, blk.block_id()) == (1, 3) {
                        panic!("block 3 fails");
                    }
                }
                finished.fetch_add(1, Ordering::Relaxed);
                Ok::<(), ()>(())
            })
        }));
        let payload = crashed.expect_err("block 3 of GPU 1 panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 3 fails"));
        assert_eq!(
            finished.load(Ordering::Relaxed),
            15,
            "every other block ran"
        );

        let ran = AtomicU64::new(0);
        launch_fleet(&gpus, &grids, |_, blk, pace| {
            pace.wait(blk, 0);
            ran.fetch_add(1, Ordering::Relaxed);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn fleet_launches_reuse_their_block_threads() {
        // A pool of its own, so no other test's launches count.
        static POOL: Pool = Pool::new();
        let gpus = [gpu(), Gpu::new(1, GpuSpec::small_test())];
        let grids = [Grid::new(8, 32), Grid::new(5, 32)];
        let launch = || {
            launch_fleet_on(&POOL, &gpus, &grids, |_, blk, pace| {
                pace.wait(blk, 0);
                blk.advance(1_000);
                pace.wait(blk, 0);
                Ok::<(), ()>(())
            })
            .unwrap()
        };
        launch();
        let after_first = POOL.spawned();
        for _ in 1..20 {
            launch();
        }
        assert_eq!(POOL.spawned(), after_first, "a warm pool spawned a thread");
        assert!(after_first <= 8 + 5, "{after_first} threads for 13 slots");
    }

    #[test]
    #[should_panic(expected = "GPU 1: a grid of 9 blocks over-subscribes its 8 MP slots")]
    fn an_over_subscribed_grid_is_refused_before_any_block_runs() {
        let gpus = [gpu(), gpu()];
        let ran = AtomicU64::new(0);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launch_fleet(&gpus, &[Grid::new(1, 32), Grid::new(9, 32)], |_, _, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok::<(), ()>(())
            })
        }));
        // A launch that had started would have run GPU 0's block before
        // the scope let the panic out.
        assert_eq!(ran.load(Ordering::Relaxed), 0, "a block ran");
        std::panic::resume_unwind(refused.expect_err("9 blocks on 8 slots"));
    }
}
