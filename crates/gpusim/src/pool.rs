//! The block threads a fleet launch runs on, kept from launch to launch.
//!
//! A fleet launch hands the pool one job per MP slot and waits for all
//! of them. Every job gets a thread at once, never a queue place: paced
//! blocks wait on one another, and a block that has not started holds
//! its seat at clock 0, so a queued slot would hold every paced block
//! forever. A job goes to an idle worker or, when none is idle, to a
//! new one; the pool never shrinks, so it holds the most jobs that ever
//! ran at once. An idle worker and a waiting launcher both park on a
//! `simtime::ClockBoard`.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simtime::ClockBoard;

/// One MP slot of a launch, borrowing what the launch owns.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

type Panic = Box<dyn Any + Send>;

/// Kept threads, and the ones waiting for a job.
pub(crate) struct Pool {
    idle: Mutex<Vec<Arc<Worker>>>,
    /// Threads this pool has spawned, ever.
    #[cfg(test)]
    spawned: AtomicUsize,
}

/// The pool every fleet launch runs on.
pub(crate) static BLOCK_THREADS: Pool = Pool::new();

/// One launch's jobs, as their workers see them.
struct Batch {
    /// Jobs handed out and not yet finished. A task's count-down
    /// releases what its job wrote; the launcher's load of 0 acquires it.
    pending: AtomicUsize,
    /// Where the launcher waits for `pending` to reach 0.
    done: ClockBoard,
    /// Each job's panic, by job index.
    panics: Mutex<Vec<Option<Panic>>>,
}

/// A job handed out. Its fields drop in order, so an unrun job drops
/// before its `Finish` counts it down.
struct Task {
    job: Job<'static>,
    index: usize,
    finish: Finish,
}

/// One count in a batch's `pending`, counted down when it drops.
struct Finish(Arc<Batch>);

/// A kept thread's mailbox.
struct Worker {
    task: Mutex<Option<Task>>,
    /// Where the worker waits for a task.
    wake: ClockBoard,
}

/// Waits, when it drops, until every job handed out has finished.
struct Join<'b>(&'b Batch);

impl Pool {
    pub(crate) const fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
            #[cfg(test)]
            spawned: AtomicUsize::new(0),
        }
    }

    /// Run every job on a thread of its own, all at once, and return when
    /// all have finished. A job's panic does not stop the others; the
    /// first panic in job order is re-raised once all have finished.
    ///
    /// # Panics
    ///
    /// Re-raises a job's panic. Panics, once the jobs already running
    /// have finished, if a thread could not be spawned; the jobs not yet
    /// handed out are dropped unrun.
    pub(crate) fn run(&'static self, jobs: Vec<Job<'_>>) {
        let batch = Arc::new(Batch {
            pending: AtomicUsize::new(0),
            done: ClockBoard::new(0),
            panics: Mutex::new(jobs.iter().map(|_| None).collect()),
        });
        let join = Join(&batch);
        // Declared after `join`, so on an unwind the jobs not handed out
        // drop before `join` waits for the rest.
        let mut jobs = jobs.into_iter().enumerate();
        let mut refused = None;
        for (index, job) in jobs.by_ref() {
            // SAFETY: only the lifetime changes, and this call neither
            // returns nor unwinds before every job it handed out has run
            // or dropped: `join` waits for `pending` to reach 0, and a
            // task's `Finish` counts down only after its job is gone (a
            // worker's once `catch_unwind` consumed it, a refused
            // spawn's after the job's own field dropped).
            let job = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
            batch.pending.fetch_add(1, Ordering::AcqRel);
            let task = Task {
                job,
                index,
                finish: Finish(Arc::clone(&batch)),
            };
            if let Err(e) = self.hand_out(task) {
                refused = Some(e);
                break;
            }
        }
        drop(jobs);
        drop(join);
        let panic = batch.panics.lock().iter_mut().find_map(Option::take);
        if let Some(panic) = panic {
            panic::resume_unwind(panic);
        }
        if let Some(e) = refused {
            panic!("could not spawn a block thread: {e}");
        }
    }

    /// Give `task` to an idle worker, or to a new one.
    fn hand_out(&'static self, task: Task) -> std::io::Result<()> {
        let idle = self.idle.lock().pop();
        if let Some(worker) = idle {
            *worker.task.lock() = Some(task);
            worker.wake.notify_first();
            return Ok(());
        }
        let worker = Arc::new(Worker {
            task: Mutex::new(Some(task)),
            wake: ClockBoard::new(0),
        });
        std::thread::Builder::new()
            .name("gpusim-block".into())
            .spawn(move || self.work(&worker))?;
        #[cfg(test)]
        self.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A kept thread's life: run a task, go idle, wait for the next.
    fn work(&self, me: &Arc<Worker>) {
        loop {
            let Task { job, index, finish } = me.next_task();
            if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(job)) {
                finish.0.panics.lock()[index] = Some(panic);
            }
            // Idle before the launch can return, so the launch after it
            // finds this thread.
            self.idle.lock().push(Arc::clone(me));
            drop(finish);
        }
    }

    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }
}

impl Worker {
    fn next_task(&self) -> Task {
        let waiter = self.wake.waiter(0);
        loop {
            if let Some(task) = self.task.lock().take() {
                return task;
            }
            waiter.wait(|| self.task.lock().is_some());
        }
    }
}

impl Drop for Finish {
    fn drop(&mut self) {
        let Finish(batch) = self;
        if batch.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            batch.done.notify_first();
        }
    }
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let Join(batch) = *self;
        let waiter = batch.done.waiter(0);
        while !waiter.wait(|| batch.pending.load(Ordering::Acquire) == 0) {}
    }
}
