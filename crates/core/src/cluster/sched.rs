//! Work distribution across the fleet's GPUs (paper §6).
//!
//! The paper's image search shards one shared file set across up to 8
//! GPUs. With uniform inputs a static split is enough, but real match
//! costs are skewed — one database file can cost many times another —
//! and a static shard then leaves most GPUs idle while the unlucky one
//! finishes. [`WorkQueue`] models both policies over *file-grained*
//! jobs: every work item is a file (or a chunk of one), items are dealt
//! to per-GPU shards up front, and under
//! [`ShardStrategy::WorkStealing`] a GPU whose own shard runs dry steals
//! items from the back of the slowest (most-loaded) shard instead of
//! going idle.
//!
//! Threadblocks pull items directly — `queue.next(gpu)` from inside the
//! kernel — so the queue also load-balances *within* a GPU across its
//! resident blocks, exactly like the atomically-incremented work index
//! GPU kernels conventionally use.

use obs::Counter;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// How work items are distributed across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Items are dealt to per-GPU shards up front and never move: a GPU
    /// that drains its shard goes idle (the paper's static split).
    Static,
    /// Static dealing plus dynamic balancing: an idle GPU steals the
    /// tail item of the shard with the most work left.
    #[default]
    WorkStealing,
}

/// One claimed work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Index into the job list the queue was built over.
    pub index: usize,
    /// Whether this item was stolen from another GPU's shard.
    pub stolen: bool,
}

/// A fleet-level distribution queue over `n_items` file-grained jobs
/// (see module docs).
#[derive(Debug)]
pub struct WorkQueue {
    shards: Vec<Mutex<VecDeque<usize>>>,
    strategy: ShardStrategy,
    steals: Counter,
}

impl WorkQueue {
    /// Deal items `0..n_items` to `n_shards` shards in contiguous runs
    /// (item `i` goes to shard `i * n_shards / n_items`), the natural
    /// split when consecutive items are chunks of the same files.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    #[must_use]
    pub fn contiguous(n_items: usize, n_shards: usize, strategy: ShardStrategy) -> Self {
        assert!(n_shards > 0, "work queue needs at least one shard");
        let mut shards: Vec<VecDeque<usize>> = (0..n_shards).map(|_| VecDeque::new()).collect();
        for item in 0..n_items {
            shards[item * n_shards / n_items.max(1)].push_back(item);
        }
        Self::from_shards(shards, strategy)
    }

    /// Deal item `i` to shard `assignments[i]` — the general form behind
    /// file-grained sharding with sub-file items: assign every chunk of
    /// one file to that file's shard, and stealing still migrates
    /// individual chunks.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or any assignment is out of range.
    #[must_use]
    pub fn with_assignments(
        assignments: &[usize],
        n_shards: usize,
        strategy: ShardStrategy,
    ) -> Self {
        assert!(n_shards > 0, "work queue needs at least one shard");
        let mut shards: Vec<VecDeque<usize>> = (0..n_shards).map(|_| VecDeque::new()).collect();
        for (item, &shard) in assignments.iter().enumerate() {
            shards[shard].push_back(item);
        }
        Self::from_shards(shards, strategy)
    }

    fn from_shards(shards: Vec<VecDeque<usize>>, strategy: ShardStrategy) -> Self {
        Self {
            shards: shards.into_iter().map(Mutex::new).collect(),
            strategy,
            steals: Counter::new(),
        }
    }

    /// Number of shards (GPUs) the queue deals to.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Claim the next item for GPU `shard`: the front of its own shard,
    /// or — under [`ShardStrategy::WorkStealing`] — the tail of the
    /// shard with the most items left. `None` means this GPU is done
    /// (though under stealing, `None` means the whole fleet is done).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn next(&self, shard: usize) -> Option<WorkItem> {
        if let Some(index) = self.shards[shard].lock().pop_front() {
            return Some(WorkItem {
                index,
                stolen: false,
            });
        }
        if self.strategy == ShardStrategy::Static {
            return None;
        }
        // Steal from the slowest shard: the one with the most work left.
        // Victim choice and pop are not atomic with respect to other
        // thieves — at worst two thieves pick the same victim and the
        // second retries — so loop until a steal lands or everything is
        // provably empty.
        loop {
            let victim = self
                .shards
                .iter()
                .enumerate()
                .filter(|&(s, _)| s != shard)
                .map(|(s, q)| (q.lock().len(), s))
                .max()?;
            let (len, victim) = victim;
            if len == 0 {
                return None;
            }
            if let Some(index) = self.shards[victim].lock().pop_back() {
                self.steals.incr();
                return Some(WorkItem {
                    index,
                    stolen: true,
                });
            }
        }
    }

    /// Items stolen so far (0 under [`ShardStrategy::Static`]).
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.steals.get()
    }

    /// Items not yet claimed, across all shards.
    #[cfg(test)]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn drain_all(q: &WorkQueue, shard: usize) -> Vec<WorkItem> {
        std::iter::from_fn(|| q.next(shard)).collect()
    }

    #[test]
    fn contiguous_dealing_splits_in_runs() {
        let q = WorkQueue::contiguous(8, 2, ShardStrategy::Static);
        let a: Vec<usize> = drain_all(&q, 0).iter().map(|w| w.index).collect();
        let b: Vec<usize> = drain_all(&q, 1).iter().map(|w| w.index).collect();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![4, 5, 6, 7]);
        assert_eq!(q.steals(), 0, "static never steals");
    }

    #[test]
    fn static_shard_goes_idle_but_stealing_drains_everything() {
        let q = WorkQueue::contiguous(6, 3, ShardStrategy::Static);
        assert_eq!(drain_all(&q, 0).len(), 2);
        assert!(q.next(0).is_none(), "static: own shard empty means idle");
        assert_eq!(q.remaining(), 4, "other shards untouched");

        let q = WorkQueue::contiguous(6, 3, ShardStrategy::WorkStealing);
        let items = drain_all(&q, 0);
        assert_eq!(items.len(), 6, "one GPU steals the whole fleet's work");
        assert_eq!(q.steals(), 4);
        assert_eq!(
            items.iter().filter(|w| w.stolen).count(),
            4,
            "everything beyond the own shard is marked stolen"
        );
        assert!(items[..2].iter().all(|w| !w.stolen));
    }

    #[test]
    fn steals_come_from_the_tail_of_the_fullest_shard() {
        // Shard 0: items 0..6, shard 1: 6..8, shard 2: empty.
        let mut shards = vec![VecDeque::new(), VecDeque::new(), VecDeque::new()];
        shards[0].extend(0..6usize);
        shards[1].extend(6..8usize);
        let q = WorkQueue::from_shards(shards, ShardStrategy::WorkStealing);
        let w = q.next(2).unwrap();
        assert!(w.stolen);
        assert_eq!(w.index, 5, "tail of the most-loaded shard");
        let w = q.next(2).unwrap();
        assert_eq!(w.index, 4);
    }

    #[test]
    fn concurrent_claimants_cover_every_item_exactly_once() {
        let q = WorkQueue::contiguous(256, 4, ShardStrategy::WorkStealing);
        let claimed: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|g| {
                    let q = &q;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(w) = q.next(g) {
                            mine.push(w.index);
                            std::thread::yield_now();
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let all: Vec<usize> = claimed.iter().flatten().copied().collect();
        assert_eq!(all.len(), 256, "every item claimed");
        assert_eq!(
            all.iter().copied().collect::<HashSet<_>>().len(),
            256,
            "no item claimed twice"
        );
        assert_eq!(q.remaining(), 0);
    }
}
