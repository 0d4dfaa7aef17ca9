//! Conservative pacing of actors whose virtual clocks run on real threads.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Nanos;

/// One published virtual clock per seat, which keeps actors running on
/// real threads close together in virtual time.
///
/// A real thread's speed has nothing to do with the virtual cost its
/// actor accrues: left alone, whoever is scheduled first runs far ahead,
/// and shared devices see a schedule no virtual timeline has. An actor
/// that calls [`ClockBoard::pace`] before each step waits until no live
/// seat is more than `lag` behind it. A seat taken with
/// [`ClockBoard::seat`] parks at `u64::MAX` when its guard drops —
/// however the actor exits, a panic included — and then never holds the
/// line.
#[derive(Debug)]
pub struct ClockBoard {
    clocks: Vec<AtomicU64>,
}

/// A seat on a [`ClockBoard`]; dropping it parks the seat.
#[derive(Debug)]
pub struct Seat<'a> {
    board: &'a ClockBoard,
    seat: usize,
}

impl ClockBoard {
    /// A board of `seats` seats, every clock at zero.
    #[must_use]
    pub fn new(seats: usize) -> Self {
        Self {
            clocks: (0..seats).map(|_| AtomicU64::new(0)).collect(),
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
        loop {
            self.clocks[seat].store(now, Ordering::Release);
            let behind = self
                .clocks
                .iter()
                .enumerate()
                .any(|(s, c)| s != seat && c.load(Ordering::Acquire).saturating_add(lag) < now);
            if !behind {
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        self.board.clocks[self.seat].store(u64::MAX, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn a_seat_ahead_waits_for_the_one_behind() {
        let board = ClockBoard::new(2);
        let steps = std::sync::atomic::AtomicUsize::new(0);
        let lag = 10;
        std::thread::scope(|s| {
            s.spawn(|| {
                let _seat = board.seat(0);
                // Far ahead: returns only once seat 1 has caught up to
                // within the lag, or left — here, after both its steps.
                board.pace(0, 1_000, lag);
                assert_eq!(steps.load(Ordering::Acquire), 2);
            });
            s.spawn(|| {
                let _seat = board.seat(1);
                for now in [0, 500] {
                    board.pace(1, now, lag);
                    steps.fetch_add(1, Ordering::AcqRel);
                }
            });
        });
    }
}
