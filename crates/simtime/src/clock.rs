//! Per-actor virtual clocks.

use crate::Nanos;

/// The local virtual clock of one simulated executor.
///
/// A `Clock` is plain data owned by one actor (one GPU threadblock slot, the
/// RPC daemon, a CPU worker). It only ever moves forward. Cross-actor
/// synchronization happens by exchanging timestamps and calling
/// [`Clock::wait_until`] with the producer's completion time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clock {
    now: Nanos,
}

impl Clock {
    /// A clock starting at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self { now: 0 }
    }

    /// A clock starting at `start`, used when an actor is spawned mid-run
    /// (e.g. a threadblock dispatched after the kernel launch timestamp).
    #[must_use]
    pub fn starting_at(start: Nanos) -> Self {
        Self { now: start }
    }

    /// Current local virtual time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Spend `dur` nanoseconds of local work.
    pub fn advance(&mut self, dur: Nanos) {
        self.now = self.now.saturating_add(dur);
    }

    /// Block (virtually) until `t`; no-op if `t` is already in the past.
    pub fn wait_until(&mut self, t: Nanos) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        c.advance(10);
        c.wait_until(5); // in the past: no-op
        assert_eq!(c.now(), 10);
        c.wait_until(25);
        assert_eq!(c.now(), 25);
    }

    #[test]
    fn clock_starting_at() {
        let c = Clock::starting_at(42);
        assert_eq!(c.now(), 42);
    }

    #[test]
    fn clock_saturates_instead_of_overflowing() {
        let mut c = Clock::starting_at(u64::MAX - 1);
        c.advance(100);
        assert_eq!(c.now(), u64::MAX);
    }
}
