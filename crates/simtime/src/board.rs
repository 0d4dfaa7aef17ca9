//! The one real-time wait: pacing of actors whose virtual clocks run on
//! real threads, and every block-and-wake between them.

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::thread::Thread;
use std::time::Duration;

use parking_lot::Mutex;

use crate::Nanos;

/// The longest a round of [`ClockBoard::wait`] parks. It bounds a wait
/// whose notify is missed or whose notifier is gone: the round returns
/// anyway.
const QUANTUM: Duration = Duration::from_micros(50);

/// Checks of `ready` a round makes, spinning on the CPU, before it parks.
/// It spins, not yields: a waiter that yields keeps competing for the
/// cores the actors it waits for run on.
const SPIN_ROUNDS: usize = 16;

/// One published virtual clock per seat, and the queue every real-time
/// wait between actors parks in (a board of zero seats is just the queue).
///
/// A real thread's speed has nothing to do with the virtual cost its
/// actor accrues: left alone, whoever is scheduled first runs far ahead.
/// An actor that calls [`ClockBoard::pace`] before each step waits until
/// no live seat is more than `lag` behind it. A [`Seat`] parks at
/// `u64::MAX` when it drops, however the actor exits, a panic included.
///
/// A round of a wait checks its condition, then parks: until a notify or
/// one quantum for [`ClockBoard::wait`], until a notify for a held
/// [`Waiter`]. A notify that finds no waiter costs one atomic load.
#[derive(Debug)]
pub struct ClockBoard {
    clocks: Vec<AtomicU64>,
    queue: Mutex<Queue>,
    waiting: AtomicUsize,
    /// Waiters [`ClockBoard::notify_first`] took out, ever: a waiter
    /// looks for its entry only when this moved.
    picks: AtomicU64,
}

#[derive(Debug, Default)]
struct Queue {
    /// Waiters by `(virtual time, ticket)`.
    waiters: BTreeMap<(Nanos, u64), Thread>,
    next_ticket: u64,
}

/// A seat on a [`ClockBoard`]; dropping it parks the seat.
#[derive(Debug)]
pub struct Seat<'a> {
    board: &'a ClockBoard,
    seat: usize,
}

/// The calling thread's place in a [`ClockBoard`]'s queue until it drops,
/// kept across rounds of [`Waiter::wait`].
#[derive(Debug)]
pub struct Waiter<'a> {
    board: &'a ClockBoard,
    key: (Nanos, u64),
    picks_seen: u64,
}

impl ClockBoard {
    /// A board of `seats` seats, every clock at zero.
    #[must_use]
    pub fn new(seats: usize) -> Self {
        Self {
            clocks: (0..seats).map(|_| AtomicU64::new(0)).collect(),
            queue: Mutex::new(Queue::default()),
            waiting: AtomicUsize::new(0),
            picks: AtomicU64::new(0),
        }
    }

    /// Take `seat` for the actor about to run on it.
    ///
    /// # Panics
    ///
    /// Panics if `seat` is not on the board.
    #[must_use]
    pub fn seat(&self, seat: usize) -> Seat<'_> {
        assert!(seat < self.clocks.len(), "seat {seat} is not on the board");
        Seat { board: self, seat }
    }

    /// Publish `now` as `seat`'s clock and wait until no other live seat's
    /// clock plus `lag` is behind it (`lag = 0`: the least-advanced actor
    /// goes first). A live seat that stops pacing holds everyone behind it.
    pub fn pace(&self, seat: usize, now: Nanos, lag: Nanos) {
        let ready = || {
            let behind = |(s, c): (usize, &AtomicU64)| {
                s != seat && c.load(Ordering::Acquire).saturating_add(lag) < now
            };
            !self.clocks.iter().enumerate().any(behind)
        };
        self.clocks[seat].store(now, Ordering::Release);
        // Only the earliest waiter can be freed by a publish: a later one
        // is held back by the earlier one's own clock, or by whatever
        // holds the earlier one back.
        self.notify_first();
        if ready() {
            return;
        }
        loop {
            let waiter = self.waiter(now);
            while !waiter.wait(ready) {}
            drop(waiter);
            if ready() {
                break;
            }
        }
        // The next in line may be free to go too (a tie, or within `lag`).
        self.notify_first();
    }

    /// Queue the calling thread as a waiter at virtual time `key`.
    #[must_use]
    pub fn waiter(&self, key: Nanos) -> Waiter<'_> {
        let mut q = self.queue.lock();
        let key = (key, q.next_ticket);
        q.next_ticket += 1;
        q.waiters.insert(key, std::thread::current());
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let picks_seen = self.picks.load(Ordering::Acquire);
        Waiter {
            board: self,
            key,
            picks_seen,
        }
    }

    /// One round of waiting at virtual time `key` for a condition whose
    /// notifier may be gone: `true` once `ready()` holds, `false` after a
    /// notify or a quantum.
    pub fn wait(&self, key: Nanos, ready: impl FnMut() -> bool) -> bool {
        self.waiter(key).round(ready, Some(QUANTUM))
    }

    /// Wake every waiter to check its condition again.
    pub fn notify_all(&self) {
        if self.anyone_waiting() {
            self.queue.lock().waiters.values().for_each(Thread::unpark);
        }
    }

    /// Take the waiter with the earliest `(virtual time, ticket)` out of
    /// the queue and wake it; its [`Waiter::wait`] returns `true` from
    /// then on. Returns whether there was one.
    pub fn notify_first(&self) -> bool {
        if !self.anyone_waiting() {
            return false;
        }
        let Some((_, thread)) = self.queue.lock().waiters.pop_first() else {
            return false;
        };
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        self.picks.fetch_add(1, Ordering::Release);
        thread.unpark();
        true
    }

    /// Waiters queued now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.waiting.load(Ordering::Acquire)
    }

    /// Whether no waiter is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fence pairs with the one in [`Waiter::wait`]: either the
    /// waiter's `ready` sees the notifier's change, or this sees the
    /// waiter.
    fn anyone_waiting(&self) -> bool {
        fence(Ordering::SeqCst);
        self.waiting.load(Ordering::Relaxed) > 0
    }
}

impl Waiter<'_> {
    /// One round of a wait some actor is certain to notify (a turn that
    /// will be freed, a seat that will publish or leave): `true` as soon
    /// as `ready()` holds or [`ClockBoard::notify_first`] picked this
    /// waiter, else `false` after a notify.
    pub fn wait(&self, ready: impl FnMut() -> bool) -> bool {
        self.round(ready, None)
    }

    /// A round parks for `quantum` at most, or until a notify. `ready`
    /// must be cheap and must not block. The round is a lockcheck
    /// blocking region, so a lock held across it — the fpage lock
    /// included — is a finding.
    fn round(&self, mut ready: impl FnMut() -> bool, quantum: Option<Duration>) -> bool {
        parking_lot::lockcheck::blocking_region("simtime-wait", || {
            fence(Ordering::SeqCst);
            for _ in 0..SPIN_ROUNDS {
                if self.picked() || ready() {
                    return true;
                }
                std::hint::spin_loop();
            }
            match quantum {
                Some(q) => std::thread::park_timeout(q),
                None => std::thread::park(),
            }
            self.picked() || ready()
        })
    }

    fn picked(&self) -> bool {
        self.board.picks.load(Ordering::Acquire) != self.picks_seen
            && !self.board.queue.lock().waiters.contains_key(&self.key)
    }
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        if self.board.queue.lock().waiters.remove(&self.key).is_some() {
            self.board.waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        self.board.clocks[self.seat].store(u64::MAX, Ordering::Release);
        self.board.notify_first();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn the_least_advanced_seat_goes_first_and_a_left_seat_never_holds_the_line() {
        let board = ClockBoard::new(3);
        let _a = board.seat(0);
        // Everyone starts at zero: a seat at zero waits for nobody, and
        // within its lag a seat ahead waits for nobody either.
        board.pace(0, 0, 0);
        board.pace(1, 0, 0);
        board.pace(2, 50, 100);
        // Seats 1 and 2 leave, one by a panic: both park.
        drop(board.seat(1));
        let crashed = std::panic::catch_unwind(|| {
            let _c = board.seat(2);
            panic!("the actor on seat 2 fails");
        });
        assert!(crashed.is_err());
        // Seat 0, far ahead, is held by no one now.
        board.pace(0, 1_000_000, 0);
        let ahead: Vec<Nanos> = board
            .clocks
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect();
        assert_eq!(ahead, [1_000_000, u64::MAX, u64::MAX]);
    }

    /// How the seat behind lets the seat ahead go.
    #[derive(Clone, Copy, Debug)]
    enum Behind {
        /// It catches up to within the lag.
        Publishes,
        /// It leaves the board.
        Leaves,
        /// Its actor panics.
        Panics,
    }

    #[test]
    fn a_seat_ahead_waits_for_the_one_behind() {
        for how in [Behind::Publishes, Behind::Leaves, Behind::Panics] {
            let board = ClockBoard::new(2);
            let steps = AtomicUsize::new(0);
            let lag = 10;
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _seat = board.seat(0);
                    // Far ahead: returns only once seat 1 has caught up
                    // to within the lag, or left — after both its steps.
                    board.pace(0, 1_000, lag);
                    assert_eq!(steps.load(Ordering::Acquire), 2, "{how:?}");
                });
                s.spawn(|| {
                    let run = || {
                        let _seat = board.seat(1);
                        for now in [0, 500] {
                            board.pace(1, now, lag);
                            steps.fetch_add(1, Ordering::AcqRel);
                        }
                        // Let seat 0 queue first, so this step has to
                        // wake it.
                        while board.is_empty() {
                            std::thread::yield_now();
                        }
                        match how {
                            Behind::Publishes => board.pace(1, 995, lag),
                            Behind::Leaves => {}
                            Behind::Panics => panic!("the actor on seat 1 fails"),
                        }
                    };
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                });
            });
        }
    }

    #[test]
    fn a_wait_nothing_notifies_returns_within_a_few_quanta() {
        let board = ClockBoard::new(0);
        let t0 = Instant::now();
        for _ in 0..10 {
            assert!(!board.wait(0, || false));
        }
        // Ten rounds of a quantum each; a wait only a notify could end
        // would never get here. The bound leaves room for a loaded host.
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "took {:?}",
            t0.elapsed()
        );
        assert!(board.is_empty(), "a returned wait leaves the queue");
    }

    #[test]
    fn notify_first_wakes_the_earliest_waiter_and_the_earlier_ticket_on_a_tie() {
        let board = ClockBoard::new(0);
        let woken = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for (i, key) in [300, 100, 200, 100].into_iter().enumerate() {
                let (board, woken) = (&board, &woken);
                s.spawn(move || {
                    let waiter = board.waiter(key);
                    while !waiter.wait(|| false) {}
                    woken.lock().push((key, i));
                });
                // Queue in this order, so the tickets follow `i`.
                while board.len() < i + 1 {
                    std::thread::yield_now();
                }
            }
            for n in 1..=4 {
                assert!(board.notify_first());
                while woken.lock().len() < n {
                    std::thread::yield_now();
                }
            }
            assert!(!board.notify_first(), "nobody is left");
        });
        assert_eq!(*woken.lock(), [(100, 1), (100, 3), (200, 2), (300, 0)]);
    }
}
