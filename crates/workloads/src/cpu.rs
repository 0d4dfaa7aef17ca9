//! A modeled multicore CPU executor for the paper's OpenMP baselines.
//!
//! Real OS threads execute the baseline logic (so results can be checked
//! against the GPU versions byte-for-byte) while each core carries a
//! virtual [`Clock`]; the run's elapsed virtual time is the slowest
//! core's, exactly how the kernel-completion time is computed on the GPU
//! side. File I/O goes through [`hostfs`] and is charged there.

use simtime::{Clock, Nanos};

/// A CPU with `cores` hardware threads (the paper's baseline uses 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuExecutor {
    /// Number of cores used by the parallel region.
    pub cores: usize,
}

/// Per-core context handed to the parallel body.
#[derive(Debug)]
pub struct CoreCtx {
    core_id: usize,
    clock: Clock,
}

impl CoreCtx {
    /// This core's index in `[0, cores)`.
    #[must_use]
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Charge `dur` nanoseconds of core-local work.
    pub fn advance(&mut self, dur: Nanos) {
        self.clock.advance(dur);
    }

    /// Wait (virtually) until `t` — e.g. an I/O completion time returned
    /// by `hostfs`.
    pub fn wait_until(&mut self, t: Nanos) {
        self.clock.wait_until(t);
    }
}

impl CpuExecutor {
    /// An executor over `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self { cores }
    }

    /// Run `body` once per core in parallel (an `omp parallel` region),
    /// starting each core's clock at `start`. Returns the virtual time at
    /// which the slowest core finished.
    pub fn parallel<F>(&self, start: Nanos, body: F) -> Nanos
    where
        F: Fn(&mut CoreCtx) + Sync,
    {
        // lint:allow spawn -- the CPU baseline's cores, not GPU blocks: one thread per modelled core
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.cores)
                .map(|core_id| {
                    let body = &body;
                    s.spawn(move || {
                        let mut ctx = CoreCtx {
                            core_id,
                            clock: Clock::starting_at(start),
                        };
                        body(&mut ctx);
                        ctx.clock.now()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cpu worker panicked"))
                .max()
                .unwrap_or(start)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_cores_run_and_slowest_wins() {
        let cpu = CpuExecutor::new(8);
        let ran = AtomicUsize::new(0);
        let end = cpu.parallel(100, |core| {
            ran.fetch_add(1, Ordering::Relaxed);
            core.advance(10 * (core.core_id() as u64 + 1));
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        assert_eq!(end, 100 + 80);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let cpu = CpuExecutor::new(1);
        let end = cpu.parallel(0, |core| {
            core.advance(50);
            core.wait_until(20); // already past
            assert_eq!(core.now(), 50);
            core.wait_until(200);
        });
        assert_eq!(end, 200);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = CpuExecutor::new(0);
    }
}
