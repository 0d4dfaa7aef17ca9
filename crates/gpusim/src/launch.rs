//! Kernel launch and the non-preemptive threadblock scheduler: one slot
//! runner behind the single-GPU launch and the fleet launch, which runs a
//! kernel per GPU, paced on one shared clock board.

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

/// Result of a completed kernel: its virtual start and end.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Virtual time at which the kernel was launched.
    pub start: Nanos,
    /// Virtual completion time: the latest block-end over all MP slots.
    pub end: Nanos,
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
/// buffer, and, in a seated launch ([`launch_fleet`]), the block's seat
/// on its launch's clock board. Application "threads" inside a block run
/// sequentially via [`BlockCtx::threads`]; the real concurrency in the
/// simulator is between blocks.
pub struct BlockCtx<'g> {
    gpu: &'g Gpu,
    grid: Grid,
    block_id: usize,
    clock: Clock,
    scratch: Vec<u8>,
    seat: Option<(&'g ClockBoard, usize)>,
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

    /// Publish this block's clock on its seat and wait until no live
    /// block of its launch is more than `lag` virtual ns behind it
    /// (`lag = 0`: the virtually least-advanced block goes first). A
    /// block of an unseated launch ([`Gpu::launch`]) holds no seat, and
    /// this returns at once.
    pub fn pace(&self, lag: Nanos) {
        if let Some((board, seat)) = self.seat {
            board.pace(seat, self.clock.now(), lag);
        }
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
    /// kernel completes when the slowest slot drains. The launch is
    /// unseated: [`BlockCtx::pace`] returns at once.
    ///
    /// # Panics
    ///
    /// If a block panics (the paper notes a GPU software failure kills
    /// the whole GPU context; we surface it as a test failure): its slot
    /// runs no further block, every other slot still runs to its end, and
    /// then the launch panics with the first panicking block's own
    /// payload, in slot order.
    pub fn launch<F>(&self, grid: Grid, start: Nanos, kernel: F) -> KernelResult
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        self.launch_seeded(grid, start, rand::random(), kernel)
    }

    /// [`Gpu::launch`] with a fixed dispatch-order seed, for reproducible
    /// tests of order-sensitive behaviour (e.g. the closed-file table
    /// reviving caches when blocks close and reopen a file).
    pub fn launch_seeded<F>(&self, grid: Grid, start: Nanos, seed: u64, kernel: F) -> KernelResult
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        let alone = [Some(self.plan(grid, start, seed))];
        let Ok(ends) = run_slots(std::slice::from_ref(self), &alone, None, &|_, blk| {
            kernel(blk);
            Ok::<(), std::convert::Infallible>(())
        });
        let end = ends[0];
        KernelResult { start, end }
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
        let alone = [Some(self.plan(grid, start, rand::random()))];
        let end = run_slots(std::slice::from_ref(self), &alone, None, &|_, blk| {
            kernel(blk)
        })?[0];
        Ok(KernelResult { start, end })
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

    /// Timing calibration this GPU was built with.
    #[must_use]
    pub fn timings(&self) -> &simtime::Timings {
        self.dma().timings()
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
/// finished. The kernel runs once per block with the GPU's index and the
/// block's context.
///
/// Why the launch is seated: blocks are real threads whose real speed
/// has nothing to do with the virtual cost they accrue, and the kernels
/// start one GPU after another, so anything they claim or queue for
/// un-paced goes to whoever the OS schedules first — a schedule of no
/// virtual timeline. Every block of the fleet holds one seat of one
/// [`ClockBoard`], seat Σ(blocks of lower GPUs) + block id;
/// [`BlockCtx::pace`] orders the fleet's steps by virtual time. A seat
/// parks however its block exits, so a finished or failed block never
/// holds the line.
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
    F: Fn(usize, &mut BlockCtx<'_>) -> Result<(), E> + Sync,
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
    F: Fn(usize, &mut BlockCtx<'_>) -> Result<(), E> + Sync,
{
    assert_eq!(gpus.len(), grids.len(), "one grid per GPU");
    for (g, (gpu, grid)) in gpus.iter().zip(grids).enumerate() {
        let slots = gpu.borrow().spec().concurrent_blocks();
        assert!(
            grid.blocks <= slots,
            "GPU {g}: a grid of {} blocks over-subscribes its {slots} MP slots",
            grid.blocks
        );
    }
    let plans: Vec<Option<Plan>> = gpus
        .iter()
        .zip(grids)
        .map(|(gpu, &grid)| (grid.blocks > 0).then(|| gpu.borrow().plan(grid, 0, rand::random())))
        .collect();
    run_slots(gpus, &plans, Some(pool), &kernel)
}

/// The one slot runner: run every MP slot of every planned GPU at once,
/// one job per slot, and return each GPU's end (0 for a GPU with no
/// plan), or the first error a block returned, in GPU order.
///
/// The executor follows from the seat. A seated launch (one given a
/// `pool`) seats every block on one board, at Σ(blocks of lower GPUs) +
/// block id, and runs its slots on the pool's kept threads; there a slot
/// runs one block, and its job holds that block's seat from here, so a
/// job dropped unrun leaves the board. An unseated launch spawns one OS
/// thread per slot, in slot order: its schedule still depends on when
/// its threads start (ROADMAP item 8). Once every slot has finished, the
/// first block panic in GPU and slot order is re-raised, payload and all.
fn run_slots<G, E, F>(
    gpus: &[G],
    plans: &[Option<Plan>],
    pool: Option<&'static Pool>,
    kernel: &F,
) -> Result<Vec<Nanos>, E>
where
    G: Borrow<Gpu> + Sync,
    E: Send,
    F: Fn(usize, &mut BlockCtx<'_>) -> Result<(), E> + Sync,
{
    let seats = plans.iter().flatten().map(|plan| plan.grid.blocks).sum();
    let board = pool.map(|_| ClockBoard::new(seats));
    let ends: Vec<AtomicU64> = gpus.iter().map(|_| AtomicU64::new(0)).collect();
    let failures: Vec<Mutex<Option<E>>> = gpus.iter().map(|_| Mutex::new(None)).collect();
    let mut jobs: Vec<Job<'_>> = Vec::new();
    let mut base = 0;
    for (g, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        let (gpu, end, failed) = (gpus[g].borrow(), &ends[g], &failures[g]);
        let seat = board.as_ref().map(|board| (board, base));
        base += plan.grid.blocks;
        for slot in 0..plan.slots {
            let held = seat.map(|(board, base)| board.seat(base + plan.order[slot]));
            // A slot runs its blocks back to back, without preemption,
            // each with a fresh scratchpad, from where the one before it
            // ended. Slots take blocks round-robin over the dispatch order:
            // exactly the hardware's drain-first handout for uniform blocks,
            // and, unlike a work-stealing pull, blind to host OS scheduling,
            // which would skew the slot clocks.
            jobs.push(Box::new(move || {
                let _held = held;
                let mut clock = Clock::starting_at(plan.t0);
                for &block_id in plan.order.iter().skip(slot).step_by(plan.slots) {
                    let mut blk = BlockCtx {
                        gpu,
                        grid: plan.grid,
                        block_id,
                        clock,
                        scratch: vec![0u8; gpu.spec().scratchpad_bytes],
                        seat: seat.map(|(board, base)| (board, base + block_id)),
                    };
                    if let Err(e) = kernel(g, &mut blk) {
                        failed.lock().get_or_insert(e);
                    }
                    clock = blk.clock;
                }
                end.fetch_max(clock.now(), Ordering::Relaxed);
            }));
        }
    }
    if let Some(pool) = pool {
        pool.run(jobs);
    } else {
        let panic = std::thread::scope(|s| {
            let threads: Vec<_> = jobs.into_iter().map(|job| s.spawn(job)).collect();
            // Join every thread, keeping the first panic.
            threads
                .into_iter()
                .filter_map(|t| t.join().err())
                .reduce(|first, _| first)
        });
        if let Some(panic) = panic {
            std::panic::resume_unwind(panic);
        }
    }
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
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

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
        let block_ends: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        let res = gpu.launch(Grid::new(16, 32), 1000, |blk| {
            blk.advance(1_000 * (blk.block_id() as u64 + 1));
            block_ends[blk.block_id()].store(blk.now(), Ordering::Relaxed);
        });
        assert_eq!(res.start, 1000);
        let block_ends: Vec<Nanos> = block_ends.into_iter().map(AtomicU64::into_inner).collect();
        assert!(block_ends.iter().all(|&end| end > 1000), "every block ran");
        assert_eq!(res.end, *block_ends.iter().max().unwrap());
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
    fn a_single_gpu_launch_re_raises_its_blocks_own_panic() {
        let finished = AtomicU64::new(0);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu().launch(Grid::new(4, 32), 0, |blk| {
                blk.advance(100);
                if blk.block_id() == 1 {
                    panic!("block 1 fails");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = crashed.expect_err("block 1 panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 1 fails"));
        assert_eq!(finished.load(Ordering::Relaxed), 3, "every other block ran");
    }

    #[test]
    fn an_unseated_blocks_pace_returns_at_once() {
        // Seated, block 1 would hold its seat at clock 0 and block 0's
        // pace would wait for it, while block 1 waits for that pace.
        let paced = AtomicBool::new(false);
        gpu().launch(Grid::new(2, 32), 0, |blk| {
            if blk.block_id() == 0 {
                blk.advance(1_000_000);
                blk.pace(0);
                paced.store(true, Ordering::Release);
            } else {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !paced.load(Ordering::Acquire) {
                    assert!(Instant::now() < deadline, "block 0's pace waited");
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn a_fleet_launch_seats_every_block_and_skips_empty_grids() {
        let gpus: Vec<Gpu> = (0..3)
            .map(|id| Gpu::new(id, GpuSpec::small_test()))
            .collect();
        let t0 = gpus[0].timings().kernel_launch_ns;
        let per_gpu: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        let grids = [Grid::new(3, 32), Grid::new(0, 32), Grid::new(8, 32)];
        let ends = launch_fleet(&gpus, &grids, |g, blk| {
            assert_eq!(blk.gpu_id(), g);
            per_gpu[g].fetch_add(1, Ordering::Relaxed);
            // Eleven seats, paced across both launching GPUs.
            for _ in 0..4 {
                blk.pace(0);
                blk.advance(250 * (g as u64 + 1));
            }
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(ends, [t0 + 1_000, 0, t0 + 3_000]);
        let ran: Vec<u64> = per_gpu.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(ran, [3, 0, 8]);

        let failed = launch_fleet(&gpus[..2], &grids[..2], |g, blk| {
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
            launch_fleet(&gpus, &grids, |g, blk| {
                for _ in 0..3 {
                    blk.pace(0);
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
        launch_fleet(&gpus, &grids, |_, blk| {
            blk.pace(0);
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
            launch_fleet_on(&POOL, &gpus, &grids, |_, blk| {
                blk.pace(0);
                blk.advance(1_000);
                blk.pace(0);
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
            launch_fleet(&gpus, &[Grid::new(1, 32), Grid::new(9, 32)], |_, _| {
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
